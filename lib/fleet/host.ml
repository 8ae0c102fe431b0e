(* One datacenter host: a full Scenarios world (L0 + customer VM,
   possibly CloudSkulk-infected) plus the fleet dressing - a population
   of tenant VMs sharing a base image (KSM pressure), Poisson churn
   (boot / kill / migrate), east-west chatter, a continuous
   Detector_service, and (on host 0) the fleet SOC.

   A host owns exactly one engine (the scenario's ctx) and talks to the
   rest of the fleet only through its outgoing queue, drained through
   the shard runner's [post] at [step] - never directly. That is what
   makes a host's entire history a pure function of (fleet seed, host
   id), and hence the fleet partition-invariant. *)

type t = {
  id : int;
  spec : Spec.t;
  sc : Cloudskulk.Scenarios.t;
  rng : Sim.Rng.t;  (* churn/chatter stream, forked off the host engine *)
  image : Memory.File_image.t;  (* per-host base image tenants share *)
  service : Cloudskulk.Detector_service.t;
  soc : Cloudskulk.Fleet_soc.t option;  (* host 0 only *)
  outq : (int * Message.t) Queue.t;
  mutable tenants : Vmm.Vm.t list;
  mutable next_tenant : int;
  mutable reported : string list;  (* tenants already verdict-reported *)
  infected : bool;
  install_failed : bool;
  m_messages : Sim.Telemetry.counter;
  m_migrations : Sim.Telemetry.counter;
  (* ledger *)
  mutable boots : int;
  mutable boot_failures : int;
  mutable kills : int;
  mutable emigrations : int;
  mutable immigrations : int;
  mutable refusals : int;  (* full: stream forwarded to the next host *)
  mutable dropped_streams : int;  (* nowhere to forward (1-host fleet) *)
  mutable max_tenants : int;
  mutable chatter_sent : int;
  mutable chatter_received : int;
  mutable audits_received : int;
  mutable packet_seq : int;
}

(* What every fleet shares. ksmd is paced for a standing fleet, not a
   microbenchmark: modest batches, long sleeps, incremental rescans so
   steady-state wakeups cost O(dirtied pages). *)
let tenant_memory_mb = 4
let chatter_per_hour = 12.
let ksm_config = { Memory.Ksm.pages_to_scan = 256; sleep = Sim.Time.ms 500.; incremental = true }
let soc_audit_every = Sim.Time.minutes 25.

let detector_policy =
  {
    Cloudskulk.Detector_service.sweep_every = Sim.Time.minutes 10.;
    dedup_every_n_sweeps = 2;
    probe_pages = 8;
    probe_budget = 1;
    event_log_capacity = 64;
  }

let tenant_label id = Printf.sprintf "cust-%d" id
let host_addr id = Printf.sprintf "fleet-%d" id

let host_of_addr addr =
  let prefix = "fleet-" in
  let n = String.length prefix in
  if String.length addr > n && String.sub addr 0 n = prefix then
    int_of_string_opt (String.sub addr n (String.length addr - n))
  else None

let engine t = Sim.Ctx.engine t.sc.Cloudskulk.Scenarios.ctx
let hypervisor t = t.sc.Cloudskulk.Scenarios.host
let now t = Sim.Ctx.now t.sc.Cloudskulk.Scenarios.ctx

let track_population t =
  t.max_tenants <- max t.max_tenants (List.length t.tenants)

let launch_tenant_unchecked t =
  let name = Printf.sprintf "t%d-%d" t.id t.next_tenant in
  t.next_tenant <- t.next_tenant + 1;
  let cfg =
    {
      (Vmm.Qemu_config.default ~name) with
      Vmm.Qemu_config.memory_mb = tenant_memory_mb;
    }
  in
  match Vmm.Hypervisor.launch (hypervisor t) cfg with
  | Error _ -> t.boot_failures <- t.boot_failures + 1
  | Ok vm ->
    ignore (Vmm.Vm.load_file vm t.image);
    t.tenants <- t.tenants @ [ vm ];
    t.boots <- t.boots + 1;
    track_population t

let launch_tenant t =
  if List.length t.tenants >= Spec.capacity t.spec then
    (* full host: the scheduler would not have placed the boot here *)
    t.boot_failures <- t.boot_failures + 1
  else launch_tenant_unchecked t

let remove_tenant t vm = t.tenants <- List.filter (fun v -> not (v == vm)) t.tenants

let pick_tenant t =
  match t.tenants with
  | [] -> None
  | l -> Some (List.nth l (Sim.Rng.int t.rng (List.length l)))

let pick_remote t =
  if t.spec.Spec.hosts <= 1 then None
  else
    let d = Sim.Rng.int t.rng (t.spec.Spec.hosts - 1) in
    Some (if d >= t.id then d + 1 else d)

let send t dst msg =
  Queue.add (dst, msg) t.outq;
  Sim.Telemetry.incr t.m_messages

(* --- churn ------------------------------------------------------------- *)

let kill_op t =
  match pick_tenant t with
  | None -> ()
  | Some vm ->
    Vmm.Hypervisor.kill_vm (hypervisor t) vm;
    remove_tenant t vm;
    t.kills <- t.kills + 1

let migrate_op t =
  match (pick_tenant t, pick_remote t) with
  | Some vm, Some dst ->
    let d = Migration.Stream.capture vm in
    Vmm.Hypervisor.kill_vm (hypervisor t) vm;
    remove_tenant t vm;
    t.emigrations <- t.emigrations + 1;
    Sim.Telemetry.incr t.m_migrations;
    send t dst (Message.Vm_stream d)
  | _ -> ()

let churn_op t =
  let s = t.spec in
  let b = s.Spec.boot_per_hour and k = s.Spec.kill_per_hour and m = s.Spec.migrate_per_hour in
  let u = Sim.Rng.float t.rng (b +. k +. m) in
  if u < b then launch_tenant t else if u < b +. k then kill_op t else migrate_op t

let rec schedule_churn t =
  let s = t.spec in
  let lambda = s.Spec.boot_per_hour +. s.Spec.kill_per_hour +. s.Spec.migrate_per_hour in
  if lambda > 0. then begin
    let dt_hours = Sim.Rng.exponential t.rng (1. /. lambda) in
    let dt = Sim.Time.max (Sim.Time.ms 1.) (Sim.Time.minutes (dt_hours *. 60.)) in
    ignore
      (Sim.Engine.schedule_after (engine t) dt (fun () ->
           churn_op t;
           schedule_churn t))
  end

(* --- chatter ----------------------------------------------------------- *)

let chatter_port = 7

let chatter_op t =
  match pick_remote t with
  | None -> ()
  | Some dst ->
    t.packet_seq <- t.packet_seq + 1;
    let p =
      Net.Packet.make ~size_bytes:512 ~id:t.packet_seq
        ~src:(Net.Packet.endpoint (host_addr t.id) chatter_port)
        ~dst:(Net.Packet.endpoint (host_addr dst) chatter_port)
        "chatter"
    in
    t.chatter_sent <- t.chatter_sent + 1;
    (* unknown address on the uplink: the default route turns it into a
       cross-host mailbox message after the usual link delay *)
    Net.Fabric.Switch.send (Vmm.Hypervisor.uplink (hypervisor t)) p

let rec schedule_chatter t =
  let dt_hours = Sim.Rng.exponential t.rng (1. /. chatter_per_hour) in
  let dt = Sim.Time.max (Sim.Time.ms 1.) (Sim.Time.minutes (dt_hours *. 60.)) in
  ignore
    (Sim.Engine.schedule_after (engine t) dt (fun () ->
         chatter_op t;
         schedule_chatter t))

(* --- construction ------------------------------------------------------ *)

let incoming_port = 9099

let create ctx (spec : Spec.t) ~id =
  (* the infection coin comes off the member ctx's root stream; the
     scenario then re-forks the ctx, so the draw cannot perturb the
     world's own schedule *)
  let coin = Sim.Rng.float (Sim.Ctx.fork_rng ctx) 1.0 in
  let customer_memory_mb = spec.Spec.customer_memory_mb in
  let sc, infected, install_failed =
    if coin < spec.Spec.infection_rate then
      (* no VT-x: the stealthy variant the VMCS auditor misses, so fleet
         detections come from the rotation's dedup probes (exp_slo) *)
      match
        Cloudskulk.Scenarios.infected_result ~ksm_config ~customer_memory_mb
          ~install_config:
            {
              Cloudskulk.Install.default_config with
              Cloudskulk.Install.use_vtx = false;
            }
          ctx
      with
      | Ok sc -> (sc, true, false)
      | Error _ ->
        (Cloudskulk.Scenarios.clean ~ksm_config ~customer_memory_mb ctx, false, true)
    else (Cloudskulk.Scenarios.clean ~ksm_config ~customer_memory_mb ctx, false, false)
  in
  let cctx = sc.Cloudskulk.Scenarios.ctx in
  let tel = Sim.Ctx.telemetry cctx in
  let labels = [ ("host", string_of_int id) ] in
  let rng = Sim.Ctx.fork_rng cctx in
  let image =
    Memory.File_image.generate (Sim.Ctx.fork_rng cctx)
      ~name:(Printf.sprintf "base-%d" id)
      ~pages:64
  in
  let service =
    Cloudskulk.Detector_service.create ~policy:detector_policy cctx
      sc.Cloudskulk.Scenarios.host
  in
  let t =
    {
      id;
      spec;
      sc;
      rng;
      image;
      service;
      soc = (if id = 0 then Some (Cloudskulk.Fleet_soc.create ()) else None);
      outq = Queue.create ();
      tenants = [];
      next_tenant = 0;
      reported = [];
      infected;
      install_failed;
      m_messages = Sim.Telemetry.counter tel ~labels ~component:"fleet" "messages_sent_total";
      m_migrations = Sim.Telemetry.counter tel ~labels ~component:"fleet" "migrations_total";
      boots = 0;
      boot_failures = 0;
      kills = 0;
      emigrations = 0;
      immigrations = 0;
      refusals = 0;
      dropped_streams = 0;
      max_tenants = 0;
      chatter_sent = 0;
      chatter_received = 0;
      audits_received = 0;
      packet_seq = 0;
    }
  in
  (* initial tenant population *)
  for _ = 1 to spec.Spec.tenants_per_host do
    launch_tenant t
  done;
  (* off-host destinations leave through the mailbox, not the wire *)
  Net.Fabric.Switch.set_default_route
    (Vmm.Hypervisor.uplink (hypervisor t))
    (Some
       (fun p ->
         match host_of_addr p.Net.Packet.dst.Net.Packet.addr with
         | Some dst when dst <> t.id && dst >= 0 && dst < spec.Spec.hosts ->
           send t dst (Message.Chatter p)
         | Some _ | None -> ()));
  (* east-west receipts land on the gateway *)
  Net.Fabric.Node.listen
    (Vmm.Hypervisor.gateway (hypervisor t))
    chatter_port
    (fun _ -> t.chatter_received <- t.chatter_received + 1);
  (* continuous monitor over the customer tenant; first detections are
     forwarded to the SOC on host 0 through the mailbox *)
  let open Cloudskulk.Detector_service in
  register_tenant t.service ~name:(tenant_label id) ~env:(fun () ->
      t.sc.Cloudskulk.Scenarios.detector_env);
  set_event_hook t.service
    (Some
       (function
       | Verdict_flip { tenant; after = Cloudskulk.Dedup_detector.Nested_vm_detected; _ }
         when not (List.mem tenant t.reported) -> (
         t.reported <- tenant :: t.reported;
         match tenant_state t.service tenant with
         | None -> ()
         | Some st ->
           send t 0
             (Message.Verdict_report
                {
                  vr_host = t.id;
                  vr_tenant = tenant;
                  vr_at = now t;
                  vr_ttd = Sim.Time.diff (now t) st.registered_at;
                  vr_probes = st.probes;
                }))
       | _ -> ()));
  start_monitor t.service;
  schedule_churn t;
  schedule_chatter t;
  (* host 0 runs the fleet SOC: a deterministic audit rotation over the
     whole host population *)
  (match t.soc with
  | Some soc ->
    Sim.Engine.periodic (engine t) ~every:soc_audit_every (fun () ->
        (match Cloudskulk.Fleet_soc.next_audit_target soc ~hosts:spec.Spec.hosts with
        | Some target -> send t target Message.Audit_request
        | None -> ());
        true)
  | None -> ());
  t

(* --- mailbox hooks ----------------------------------------------------- *)

let forward_stream t d =
  let next = (t.id + 1) mod t.spec.Spec.hosts in
  if next = t.id then t.dropped_streams <- t.dropped_streams + 1
  else begin
    t.refusals <- t.refusals + 1;
    send t next (Message.Vm_stream d)
  end

let deliver t ~now:_ ~src:_ msgs =
  List.iter
    (fun msg ->
      match msg with
      | Message.Vm_stream d ->
        if List.length t.tenants >= Spec.capacity t.spec then forward_stream t d
        else (
          match Migration.Stream.resume (hypervisor t) ~incoming_port d with
          | Ok vm ->
            t.tenants <- t.tenants @ [ vm ];
            t.immigrations <- t.immigrations + 1;
            track_population t
          | Error _ -> forward_stream t d)
      | Message.Chatter p ->
        (* re-address to this host's gateway and put it on the wire *)
        let p' =
          {
            p with
            Net.Packet.dst =
              Net.Packet.endpoint
                (Net.Fabric.Node.addr (Vmm.Hypervisor.gateway (hypervisor t)))
                p.Net.Packet.dst.Net.Packet.port;
          }
        in
        Net.Fabric.Switch.send (Vmm.Hypervisor.uplink (hypervisor t)) p'
      | Message.Audit_request ->
        t.audits_received <- t.audits_received + 1;
        Cloudskulk.Detector_service.pull_probes_forward t.service
      | Message.Verdict_report { vr_host; vr_tenant; vr_at; vr_ttd; vr_probes } -> (
        match t.soc with
        | None -> ()
        | Some soc ->
          Cloudskulk.Fleet_soc.note soc
            {
              Cloudskulk.Fleet_soc.det_host = vr_host;
              det_tenant = vr_tenant;
              det_at = vr_at;
              det_ttd = vr_ttd;
              det_probes = vr_probes;
            }))
    msgs

let step t ~until ~post =
  ignore (Sim.Engine.run ~until (engine t));
  while not (Queue.is_empty t.outq) do
    let dst, msg = Queue.pop t.outq in
    post ~dst msg
  done

(* --- reporting --------------------------------------------------------- *)

type report = {
  r_host : int;
  r_rack : int;
  r_infected : bool;
  r_install_failed : bool;
  r_boots : int;
  r_boot_failures : int;
  r_kills : int;
  r_emigrations : int;
  r_immigrations : int;
  r_refusals : int;
  r_dropped_streams : int;
  r_parked : int;
  r_alive : int;
  r_max_tenants : int;
  r_capacity : int;
  r_chatter_sent : int;
  r_chatter_received : int;
  r_audits_received : int;
  r_detected : bool;
  r_ttd : Sim.Time.t option;
  r_probes : int;
  r_events : int;
}

let report t =
  let parked =
    Queue.fold
      (fun acc (_, msg) -> match msg with Message.Vm_stream _ -> acc + 1 | _ -> acc)
      0 t.outq
  in
  let st = Cloudskulk.Detector_service.tenant_state t.service (tenant_label t.id) in
  {
    r_host = t.id;
    r_rack = Spec.rack_of t.spec t.id;
    r_infected = t.infected;
    r_install_failed = t.install_failed;
    r_boots = t.boots;
    r_boot_failures = t.boot_failures;
    r_kills = t.kills;
    r_emigrations = t.emigrations;
    r_immigrations = t.immigrations;
    r_refusals = t.refusals;
    r_dropped_streams = t.dropped_streams;
    r_parked = parked;
    r_alive = List.length t.tenants;
    r_max_tenants = t.max_tenants;
    r_capacity = Spec.capacity t.spec;
    r_chatter_sent = t.chatter_sent;
    r_chatter_received = t.chatter_received;
    r_audits_received = t.audits_received;
    r_detected =
      Option.is_some (Cloudskulk.Detector_service.time_to_detect t.service (tenant_label t.id));
    r_ttd = Cloudskulk.Detector_service.time_to_detect t.service (tenant_label t.id);
    r_probes =
      (match st with
      | Some s -> s.Cloudskulk.Detector_service.probes
      | None -> 0);
    r_events = Sim.Engine.events_processed (engine t);
  }

let soc t = t.soc
