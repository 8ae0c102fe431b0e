(* The benchmark's three units of work. Each unit builds its own worlds
   from one context and runs them to completion. [run] is the timed
   part; the thunk it returns inspects the finished worlds (the checks
   and the digest) and is never timed. Every call into a layer goes
   through [Trace.call], which is free when no tracer is given. *)

module D = Cloudskulk.Dedup_detector

type outcome = {
  sim_s : float;  (** simulated seconds the unit advanced *)
  events : int;  (** engine events the unit processed *)
  digest : string;  (** the unit's simulated statistics, one line *)
  failure : string option;  (** why the unit's check failed *)
}

type t = {
  name : string;
  guest_mb : int;  (** RAM of the guest each migration moves *)
  run : Trace.t option -> Sim.Ctx.t -> unit -> outcome;
}

(* detect: the paper's Section VI-C pair - the protocol on a clean host,
   then on a host where CloudSkulk was installed (1 GB guest). *)
let detect tr ctx =
  let open Cloudskulk in
  let clean = Trace.call tr "cloudskulk.scenario" (fun () -> Scenarios.clean ctx) in
  let r_clean = Trace.call tr "cloudskulk.protocol" (fun () -> D.run clean.Scenarios.detector_env) in
  let infected = Trace.call tr "cloudskulk.install" (fun () -> Scenarios.infected ctx) in
  let r_inf = Trace.call tr "cloudskulk.protocol" (fun () -> D.run infected.Scenarios.detector_env) in
  fun () ->
    let verdict = function Ok o -> o.D.verdict | Error e -> D.Inconclusive e in
    let v_clean = verdict r_clean and v_inf = verdict r_inf in
    let clock sc = Sim.Ctx.now sc.Scenarios.ctx in
    let events sc = Sim.Engine.events_processed (Sim.Ctx.engine sc.Scenarios.ctx) in
    let install_pages =
      match infected.Scenarios.install_report with
      | Some { Install.precopy = Some p; _ } -> p.Migration.Precopy.total_pages_sent
      | _ -> 0
    in
    {
      sim_s = Sim.Time.to_s (clock clean) +. Sim.Time.to_s (clock infected);
      events = events clean + events infected;
      digest =
        Printf.sprintf "events %d+%d sim_ns %Ld+%Ld install_pages_sent %d verdicts %s / %s"
          (events clean) (events infected)
          (Sim.Time.to_ns (clock clean))
          (Sim.Time.to_ns (clock infected))
          install_pages (D.verdict_to_string v_clean) (D.verdict_to_string v_inf);
      failure =
        (if not (D.verdict_equal v_clean D.No_nested_vm) then Some "clean host not cleared"
         else if not (D.verdict_equal v_inf D.Nested_vm_detected) then
           Some "infected host not detected"
         else None);
    }

(* The first page where two RAMs differ, if any. *)
let first_difference a b =
  let n = Memory.Address_space.pages a in
  if Memory.Address_space.pages b <> n then Some (-1)
  else
    let rec go i =
      if i >= n then None
      else if
        Memory.Page.Content.equal (Memory.Address_space.read a i) (Memory.Address_space.read b i)
      then go (i + 1)
      else Some i
    in
    go 0

(* migrate: Fig 4's L0->L1 series under the kernel-compile guest - the
   CloudSkulk install move out of a busy victim. *)
let migrate tr ctx =
  let mp =
    Trace.call tr "vmm.topology" (fun () -> Vmm.Layers.migration_pair ~nested_dest:true ctx)
  in
  let ctx = mp.Vmm.Layers.mp_ctx in
  let source = mp.Vmm.Layers.mp_source and dest = mp.Vmm.Layers.mp_dest in
  let handle =
    Trace.call tr "workload.warmup" (fun () ->
        let env =
          Workload.Exec_env.make ~vm:source ~ctx ~level:(Vmm.Vm.level source)
            ~ram:(Vmm.Vm.ram source) ~rng:(Sim.Ctx.fork_rng ctx) ()
        in
        let h = Workload.Background.start env (Workload.Kernel_compile.background ()) in
        ignore (Sim.Engine.run_for (Sim.Ctx.engine ctx) (Sim.Time.s 2.));
        h)
  in
  let result = Trace.call tr "migration.precopy" (fun () -> Migration.Precopy.migrate ctx ~source ~dest ()) in
  Workload.Background.stop handle;
  fun () ->
    let events = Sim.Engine.events_processed (Sim.Ctx.engine ctx) in
    let sim_s = Sim.Time.to_s (Sim.Ctx.now ctx) in
    match result with
    | Ok (Migration.Outcome.Completed r) ->
      {
        sim_s;
        events;
        digest =
          Printf.sprintf "events %d sim_ns %Ld rounds %d pages_sent %d total_ns %Ld converged %b"
            events
            (Sim.Time.to_ns (Sim.Ctx.now ctx))
            (List.length r.Migration.Precopy.rounds)
            r.Migration.Precopy.total_pages_sent
            (Sim.Time.to_ns r.Migration.Precopy.total_time)
            r.Migration.Precopy.converged;
        failure =
          Option.map
            (Printf.sprintf "destination RAM differs from the source at page %d")
            (first_difference (Vmm.Vm.ram source) (Vmm.Vm.ram dest));
      }
    | Ok o ->
      let d = "outcome " ^ Migration.Outcome.describe o in
      { sim_s; events; digest = d; failure = Some d }
    | Error e -> { sim_s; events; digest = "error"; failure = Some e }

(* fleet: the fleet experiment's 1kvm rung, 125 hosts x 8 VMs for 45
   simulated minutes, on one shard. *)
let fleet_spec =
  {
    Fleet.Spec.default with
    Fleet.Spec.hosts = 125;
    racks = 15;
    tenants_per_host = 7;
    duration = Sim.Time.minutes 45.;
  }

(* Fleet.World.run's own six lines, with a timer around each host call.
   Spans: sim.run_sharded, with aggregate fleet.host_create,
   fleet.host_step and fleet.deliver children; the run's self time is
   the shard runner's barrier and mailbox work. *)
let run_sharded tr ~shards ctx spec =
  Trace.call tr "sim.run_sharded" (fun () ->
      let create = Trace.agg tr "fleet.host_create"
      and step = Trace.agg tr "fleet.host_step"
      and deliver = Trace.agg tr "fleet.deliver" in
      let hosts =
        Sim.Parallel.run_sharded ~jobs:1 ~shards ~ctx ~members:spec.Fleet.Spec.hosts
          ~epoch:(Fleet.Spec.epoch spec) ~until:spec.Fleet.Spec.duration (fun ~member ctx ->
            let h = Trace.timed create (fun () -> Fleet.Host.create ctx spec ~id:member) in
            {
              Sim.Parallel.world = h;
              deliver =
                (fun ~now ~src msgs -> Trace.timed deliver (fun () -> Fleet.Host.deliver h ~now ~src msgs));
              step = (fun ~until ~post -> Trace.timed step (fun () -> Fleet.Host.step h ~until ~post));
            })
      in
      List.iter Trace.close [ create; step; deliver ];
      hosts)

let world_result spec hosts =
  let detections, audits_sent, soc_reports =
    match Fleet.Host.soc hosts.(0) with
    | Some soc ->
      ( Cloudskulk.Fleet_soc.detections soc,
        Cloudskulk.Fleet_soc.audits_sent soc,
        Cloudskulk.Fleet_soc.reports_received soc )
    | None -> ([], 0, 0)
  in
  { Fleet.World.spec; reports = Array.map Fleet.Host.report hosts; detections; audits_sent; soc_reports }

(* Untraced, the unit is the library's own Fleet.World.run; traced, it
   is the same run driven through [run_sharded] above. *)
let fleet tr ctx =
  let r =
    match tr with
    | None -> Fleet.World.run ~jobs:1 ~shards:1 ctx fleet_spec
    | Some _ -> world_result fleet_spec (run_sharded tr ~shards:1 ctx fleet_spec)
  in
  fun () ->
    let infected = Fleet.World.infected_hosts r and detected = Fleet.World.detected_hosts r in
    {
      sim_s =
        float_of_int fleet_spec.Fleet.Spec.hosts *. Sim.Time.to_s fleet_spec.Fleet.Spec.duration;
      events = Fleet.World.events r;
      digest =
        Printf.sprintf "events %d infected %d detected %d render %s" (Fleet.World.events r) infected
          detected
          (Digest.to_hex (Digest.string (Fleet.World.render r)));
      failure =
        (match Fleet.World.conservation r with
        | Error e -> Some ("conservation: " ^ e)
        | Ok () when detected <> infected ->
          Some (Printf.sprintf "detected %d of %d infected hosts" detected infected)
        | Ok () -> None);
    }

let all =
  [
    { name = "detect"; guest_mb = 1024; run = detect };
    { name = "migrate"; guest_mb = 1024; run = migrate };
    { name = "fleet"; guest_mb = fleet_spec.Fleet.Spec.customer_memory_mb; run = fleet };
  ]
