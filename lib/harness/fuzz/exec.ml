type outcome = {
  features : string list;
  signature : int64;
  violation : Oracle.violation option;
}

let profile_of = function
  | Program.F_none -> Sim.Fault.none
  | Program.F_lossy -> Sim.Fault.lossy
  | Program.F_degraded -> Sim.Fault.degraded
  | Program.F_flaky -> Sim.Fault.flaky

let ksm_config_of = function
  | Program.K_default -> None
  | Program.K_fast -> Some Memory.Ksm.fast_config
  | Program.K_incremental ->
    Some { Memory.Ksm.default_config with Memory.Ksm.incremental = true }
  | Program.K_tiny ->
    (* slow enough that detector waits stretch, small enough that a
       full pass over a fuzz-sized guest still terminates quickly *)
    Some { Memory.Ksm.pages_to_scan = 16; sleep = Sim.Time.ms 5.; incremental = false }

let wiring_of = function
  | Program.S_precopy -> Migration.Wiring.Pre_copy Migration.Precopy.default_config
  | Program.S_postcopy -> Migration.Wiring.Post_copy Migration.Postcopy.default_config

let outcome_class = function
  | Migration.Outcome.Completed _ -> "completed"
  | Migration.Outcome.Recovered _ -> "recovered"
  | Migration.Outcome.Aborted { reason; _ } -> (
    "aborted:"
    ^
    match reason with
    | Migration.Outcome.Channel_down _ -> "channel-down"
    | Migration.Outcome.Cancelled _ -> "cancelled"
    | Migration.Outcome.Postcopy_paused -> "postcopy-paused")

(* Top-level so it stays polymorphic in the migration statistics type
   (pre-copy and post-copy results flow through the same checks). *)
let finish_migration ~emit ~violate ~strategy ~fault ~source ~dest outcome =
  emit
    (Printf.sprintf "mig:%s:%s:%s"
       (Program.strategy_to_string strategy)
       (Program.fault_to_string fault) (outcome_class outcome));
  match Oracle.check_migration outcome ~source ~dest with
  | Some v -> violate v
  | None -> ()

let build_scenario (p : Program.t) ctx =
  let ksm_config = ksm_config_of p.ksm in
  match p.scenario with
  | Program.Clean ->
    Ok (Cloudskulk.Scenarios.clean ?ksm_config ~customer_memory_mb:p.customer_mb ctx)
  | Program.Infected { syncs; use_vtx; strategy } ->
    let install_config =
      {
        Cloudskulk.Install.default_config with
        Cloudskulk.Install.use_vtx;
        strategy = wiring_of strategy;
      }
    in
    Cloudskulk.Scenarios.infected_result ?ksm_config ~customer_memory_mb:p.customer_mb
      ~attacker_syncs_changes:syncs ~install_config ctx

let verdict_class = function
  | Cloudskulk.Dedup_detector.Nested_vm_detected -> "detected"
  | Cloudskulk.Dedup_detector.No_nested_vm -> "clean"
  | Cloudskulk.Dedup_detector.Inconclusive _ -> "inconclusive"

let exec_world (p : Program.t) ~sink ~emit ~violate ~violated =
  let ctx = Sim.Ctx.create ~seed:p.seed ~telemetry:sink ~faults:(profile_of p.faults) () in
  match build_scenario p ctx with
  | Error f ->
    emit
      ("install:"
      ^
      match f with
      | Cloudskulk.Scenarios.Launch_failed _ -> "launch-failed"
      | Cloudskulk.Scenarios.Install_failed _ -> "install-failed")
  | Ok sc ->
    emit
      ("install:" ^ match p.scenario with Program.Clean -> "clean" | Program.Infected _ -> "ok");
    let sc_ctx = sc.Cloudskulk.Scenarios.ctx in
    let eng = Sim.Ctx.engine sc_ctx in
    let host = sc.Cloudskulk.Scenarios.host in
    let customer = sc.Cloudskulk.Scenarios.customer_vm in
    let denv = sc.Cloudskulk.Scenarios.detector_env in
    let extras = ref [] in
    let last_file = ref None in
    let delivered = ref 0 in
    let apply = function
      | Program.Advance ms ->
        ignore (Sim.Engine.run_for eng (Sim.Time.ms (float_of_int ms)));
        emit (Printf.sprintf "advance:%d" (Coverage.bucket (float_of_int ms)))
      | Program.Monitor i ->
        let cmd = Program.monitor_command (i mod Program.monitor_command_count) in
        let tok =
          match
            String.split_on_char ' ' cmd |> List.filter (fun s -> not (String.equal s ""))
          with
          | [] -> "empty"
          | words -> String.concat "-" words
        in
        (match Vmm.Monitor.execute customer cmd with
        | Vmm.Monitor.Ok_text _ -> emit (Printf.sprintf "mon:%s:ok" tok)
        | Vmm.Monitor.Error_text _ -> emit (Printf.sprintf "mon:%s:err" tok)
        | Vmm.Monitor.Quit -> emit (Printf.sprintf "mon:%s:quit" tok))
      | Program.Workload { kind; rate; ms } ->
        if Vmm.Vm.is_alive customer then begin
          let env =
            Workload.Exec_env.make ~vm:customer ~ctx:sc_ctx ~level:(Vmm.Vm.level customer)
              ~ram:(Vmm.Vm.ram customer) ~rng:(Sim.Ctx.fork_rng sc_ctx) ()
          in
          let spec =
            match kind with
            | Program.W_idle ->
              Workload.Idle.background ~pages_per_second:(float_of_int rate) ()
            | Program.W_compile ->
              Workload.Kernel_compile.background ~pages_per_second:(float_of_int rate) ()
            | Program.W_filebench -> Workload.Filebench.background ()
            | Program.W_netperf -> Workload.Netperf.background ()
          in
          let h = Workload.Background.start env spec in
          ignore (Sim.Engine.run_for eng (Sim.Time.ms (float_of_int ms)));
          Workload.Background.stop h;
          emit
            (Printf.sprintf "wl:%s:%d"
               (Program.workload_to_string kind)
               (Coverage.bucket (float_of_int (Workload.Background.ticks h))))
        end
        else emit "wl:dead-vm"
      | Program.Ksm_scan n -> (
        match Vmm.Hypervisor.ksm host with
        | Some k ->
          for _ = 1 to n do
            Memory.Ksm.scan_once k
          done;
          emit "ksmscan:ok"
        | None -> emit "ksmscan:none")
      | Program.Deliver { pages; salt = _ } ->
        if Vmm.Vm.is_alive customer then begin
          incr delivered;
          let name = Printf.sprintf "fz-%d" !delivered in
          let img = Memory.File_image.generate (Sim.Ctx.fork_rng sc_ctx) ~name ~pages in
          match denv.Cloudskulk.Dedup_detector.deliver_to_guest img with
          | Ok () ->
            last_file := Some name;
            emit (Printf.sprintf "deliver:ok:%d" (Coverage.bucket (float_of_int pages)))
          | Error _ -> emit "deliver:err"
        end
        else emit "deliver:dead-vm"
      | Program.Mutate { salt } -> (
        match !last_file with
        | None -> emit "mutate:none"
        | Some name -> (
          if Vmm.Vm.is_alive customer then
            match denv.Cloudskulk.Dedup_detector.mutate_in_guest ~name ~salt with
            | Ok () -> emit "mutate:ok"
            | Error _ -> emit "mutate:err"
          else emit "mutate:dead-vm"))
      | Program.Launch { memory_mb } -> (
        let cfg =
          {
            (Vmm.Qemu_config.default ~name:(Printf.sprintf "fz-extra%d" (List.length !extras)))
            with
            Vmm.Qemu_config.memory_mb;
          }
        in
        match Vmm.Hypervisor.launch host cfg with
        | Ok vm ->
          extras := vm :: !extras;
          emit "launch:ok"
        | Error _ -> emit "launch:err")
      | Program.Kill_last -> (
        match !extras with
        | [] -> emit "kill:none"
        | vm :: rest ->
          Vmm.Hypervisor.kill_vm host vm;
          extras := rest;
          emit "kill:ok")
      | Program.Migrate { strategy; fault; memory_mb; nested; cancel } -> (
        let cfg =
          { (Vmm.Qemu_config.default ~name:"fz-mig") with Vmm.Qemu_config.memory_mb }
        in
        let mp =
          Vmm.Layers.migration_pair ~ksm_config:Memory.Ksm.fast_config ~config:cfg
            ~nested_dest:nested sc_ctx
        in
        let source = mp.Vmm.Layers.mp_source and dest = mp.Vmm.Layers.mp_dest in
        if cancel then Vmm.Vm.request_migrate_cancel source;
        let inj =
          match fault with
          | Program.F_none -> None
          | f -> Some (Sim.Fault.create (profile_of f) (Sim.Ctx.fork_rng mp.Vmm.Layers.mp_ctx))
        in
        let finish outcome = finish_migration ~emit ~violate ~strategy ~fault ~source ~dest outcome in
        match strategy with
        | Program.S_precopy -> (
          match
            Migration.Precopy.migrate ?fault:inj mp.Vmm.Layers.mp_ctx ~source ~dest ()
          with
          | Error _ -> emit "mig:err"
          | Ok outcome -> finish outcome)
        | Program.S_postcopy -> (
          match
            Migration.Postcopy.migrate ?fault:inj mp.Vmm.Layers.mp_ctx ~source ~dest ()
          with
          | Error _ -> emit "mig:err"
          | Ok outcome -> finish outcome))
      | Program.Detect { file_pages } -> (
        match Cloudskulk.Dedup_detector.run ~file_pages denv with
        | Error _ -> emit "detect:err"
        | Ok o ->
          let v = o.Cloudskulk.Dedup_detector.verdict in
          emit ("verdict:" ^ verdict_class v);
          (match (p.scenario, v) with
          | Program.Infected { syncs = false; _ }, Cloudskulk.Dedup_detector.No_nested_vm ->
            violate
              {
                Oracle.oracle = "false-negative";
                detail =
                  "CloudSkulk installed (no sync evasion) but the dedup detector returned \
                   No_nested_vm";
              }
          | Program.Clean, Cloudskulk.Dedup_detector.Nested_vm_detected ->
            violate
              {
                Oracle.oracle = "false-positive";
                detail = "clean host but the dedup detector returned Nested_vm_detected";
              }
          | _ -> ()))
    in
    List.iter
      (fun a ->
        if not (violated ()) then begin
          apply a;
          match Oracle.check_host host with Some v -> violate v | None -> ()
        end)
      p.actions;
    (match Vmm.Hypervisor.ksm host with
    | Some k ->
      emit (Printf.sprintf "ksm:shared:%d" (Coverage.bucket (float_of_int (Memory.Ksm.pages_shared k))));
      emit
        (Printf.sprintf "ksm:sharing:%d" (Coverage.bucket (float_of_int (Memory.Ksm.pages_sharing k))));
      emit
        (Printf.sprintf "ksm:unstable:%d"
           (Coverage.bucket (float_of_int (Memory.Ksm.unstable_candidates k))));
      emit (Printf.sprintf "ksm:passes:%d" (Coverage.bucket (float_of_int (Memory.Ksm.full_scans k))))
    | None -> ());
    emit
      (Printf.sprintf "vms:%d"
         (List.length (List.filter Vmm.Vm.is_alive (Vmm.Hypervisor.vms host))))

(* The mini datacenter behind the [fleet ...] header: run it at the
   program's shard count, feed the churn ledger to the conservation
   oracle, and - the partition-invariance oracle - re-run single-shard
   and demand byte-identical output. Engine state is thrown away; only
   features and violations escape. *)
let exec_fleet (f : Program.fleet_knob) ~seed ~emit ~violate =
  let spec = Program.fleet_spec_of f in
  let run ~shards = Fleet.World.run ~jobs:1 ~shards (Sim.Ctx.create ~seed ()) spec in
  let r = run ~shards:f.fl_shards in
  emit (Printf.sprintf "fleet:hosts:%d" f.fl_hosts);
  emit
    (Printf.sprintf "fleet:infected:%d:detected:%d"
       (Fleet.World.infected_hosts r) (Fleet.World.detected_hosts r));
  emit (Printf.sprintf "fleet:boots:%d" (Coverage.bucket (float_of_int (Fleet.World.boots r))));
  emit
    (Printf.sprintf "fleet:migrations:%d"
       (Coverage.bucket (float_of_int (Fleet.World.emigrations r))));
  if Fleet.World.parked r > 0 then emit "fleet:parked";
  if Fleet.World.dropped r > 0 then emit "fleet:dropped";
  (match Fleet.World.conservation r with
  | Ok () -> emit "fleet:conserved"
  | Error detail -> violate { Oracle.oracle = "fleet-conservation"; detail });
  if f.fl_shards > 1 then
    if String.equal (Fleet.World.render r) (Fleet.World.render (run ~shards:1)) then
      emit "fleet:partition-invariant"
    else
      violate
        {
          Oracle.oracle = "fleet-partition";
          detail =
            Printf.sprintf "fleet output differs between --shards %d and --shards 1"
              f.fl_shards;
        }

let run (p : Program.t) =
  let feats = ref [] in
  let emit f = feats := f :: !feats in
  let violation = ref None in
  let violate v = if Option.is_none !violation then violation := Some v in
  (* skulkscope: allow sink-discipline — per-program coverage sink, local to one execution, read back only through fold_series *)
  let sink = Sim.Telemetry.create () in
  let violated () = Option.is_some !violation in
  (try exec_world p ~sink ~emit ~violate ~violated with
  | e -> violate { Oracle.oracle = "exception"; detail = Printexc.to_string e });
  (match p.Program.fleet with
  | None -> ()
  | Some f -> (
    try if not (violated ()) then exec_fleet f ~seed:p.Program.seed ~emit ~violate
    with e -> violate { Oracle.oracle = "exception"; detail = Printexc.to_string e }));
  Sim.Telemetry.fold_series sink ~init:() ~f:(fun () key v ->
      emit (Printf.sprintf "m:%s:%d" key (Coverage.bucket v)));
  let features = List.sort_uniq String.compare !feats in
  (* the signature hashes the ordered emission sequence (duplicates
     kept): two executions sharing a feature *set* but reaching it
     along different action paths count as distinct behaviours *)
  { features; signature = Coverage.path_signature (List.rev !feats); violation = !violation }
