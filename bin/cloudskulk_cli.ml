(* cloudskulk-cli: drive attack / detection scenarios from the shell.

     dune exec bin/cloudskulk_cli.exe -- attack
     dune exec bin/cloudskulk_cli.exe -- detect --infected
     dune exec bin/cloudskulk_cli.exe -- monitor --cmd "info qtree"
     dune exec bin/cloudskulk_cli.exe -- trace --infected

   Flag definitions come from {!Harness.Flags}, the same surface the
   bench registry exposes; each subcommand builds one root
   {!Sim.Ctx.t} and hands it to the library. *)

open Cmdliner

let seed_arg = Harness.Flags.seed_default 42

(* a root context for one CLI scenario run *)
let make_ctx ?telemetry ?(faults = Sim.Fault.none) seed =
  Sim.Ctx.create ~seed ?telemetry ~faults ()

(* attack: run the install and print the report *)
let attack seed =
  let ctx = make_ctx seed in
  let uplink = Net.Fabric.Switch.create ctx ~name:"uplink" ~link:Net.Link.lan_1gbe in
  let host = Vmm.Hypervisor.create_l0 ctx ~name:"host" ~uplink ~addr:"192.168.1.100" in
  let registry = Migration.Registry.create () in
  let config =
    Vmm.Qemu_config.with_hostfwd (Vmm.Qemu_config.default ~name:"guest0") [ (2222, 22) ]
  in
  (match Vmm.Hypervisor.launch host config with
  | Ok _ -> ()
  | Error e -> failwith e);
  match Cloudskulk.Install.run ctx ~host ~registry ~target_name:"guest0" with
  | Ok report ->
    Format.printf "%a" Cloudskulk.Install.pp_report report;
    0
  | Error e ->
    Printf.eprintf "install failed: %s\n" e;
    1

(* detect: run the detector against a clean or infected scenario *)
let detect seed infected syncs faults metrics_out trace_out =
  match Sim.Fault.profile_of_string faults with
  | Error e ->
    Printf.eprintf "%s\n" e;
    1
  | Ok faults -> (
    let telemetry = Harness.Flags.sink ~metrics_out ~trace_out in
    let ctx = make_ctx ?telemetry ~faults seed in
    let export () = Harness.Flags.export ~metrics_out ~trace_out telemetry in
    match
      if infected then
        Result.map_error
          (fun f -> "Scenarios." ^ Cloudskulk.Scenarios.install_failure_to_string f)
          (Cloudskulk.Scenarios.infected_result ~attacker_syncs_changes:syncs ctx)
      else Ok (Cloudskulk.Scenarios.clean ctx)
    with
    | Error e ->
      export ();
      Printf.eprintf "scenario failed: %s\n" e;
      1
    | Ok scenario -> (
      Printf.printf "scenario: %s\n" scenario.Cloudskulk.Scenarios.description;
      match Cloudskulk.Dedup_detector.run scenario.Cloudskulk.Scenarios.detector_env with
      | Ok o ->
        export ();
        let line (m : Cloudskulk.Dedup_detector.measurement) =
          Printf.printf "%-3s mean %8.0f ns  stddev %7.0f ns  merged %3.0f%%\n"
            m.Cloudskulk.Dedup_detector.label m.summary.Sim.Stats.mean
            m.summary.Sim.Stats.stddev
            (m.cow_fraction *. 100.)
        in
        line o.Cloudskulk.Dedup_detector.t0;
        line o.t1;
        line o.t2;
        Printf.printf "verdict: %s\n"
          (Cloudskulk.Dedup_detector.verdict_to_string o.Cloudskulk.Dedup_detector.verdict);
        if infected && o.Cloudskulk.Dedup_detector.verdict = Cloudskulk.Dedup_detector.Nested_vm_detected
           || (not infected)
              && o.Cloudskulk.Dedup_detector.verdict = Cloudskulk.Dedup_detector.No_nested_vm
        then 0
        else 2
      | Error e ->
        export ();
        Printf.eprintf "detector failed: %s\n" e;
        1))

(* monitor: run a QEMU monitor command against a fresh guest *)
let monitor seed cmd =
  let ctx = make_ctx seed in
  let uplink = Net.Fabric.Switch.create ctx ~name:"uplink" ~link:Net.Link.lan_1gbe in
  let host = Vmm.Hypervisor.create_l0 ctx ~name:"host" ~uplink ~addr:"192.168.1.100" in
  match Vmm.Hypervisor.launch host (Vmm.Qemu_config.default ~name:"guest0") with
  | Error e ->
    Printf.eprintf "%s\n" e;
    1
  | Ok vm -> (
    print_endline (Vmm.Monitor.banner vm);
    match Vmm.Monitor.execute vm cmd with
    | Vmm.Monitor.Ok_text s ->
      print_endline s;
      0
    | Vmm.Monitor.Quit -> 0
    | Vmm.Monitor.Error_text e ->
      Printf.eprintf "error: %s\n" e;
      1)

(* audit: behavioral sweep of a clean or infected host *)
let audit_host seed infected =
  let ctx = make_ctx seed in
  let scenario =
    if infected then Cloudskulk.Scenarios.infected ctx else Cloudskulk.Scenarios.clean ctx
  in
  Printf.printf "scenario: %s\n" scenario.Cloudskulk.Scenarios.description;
  let findings = Cloudskulk.Install_auditor.audit scenario.Cloudskulk.Scenarios.host in
  if findings = [] then print_endline "no findings"
  else
    List.iter
      (fun f -> Format.printf "%a@." Cloudskulk.Install_auditor.pp_finding f)
      findings;
  if Cloudskulk.Install_auditor.is_alarming findings then begin
    print_endline "=> ALARMING: quarantine and run the dedup detector";
    3
  end
  else 0

(* soc: run the continuous detector monitor against one tenant *)
let soc seed infected minutes metrics_out trace_out =
  let telemetry = Harness.Flags.sink ~metrics_out ~trace_out in
  let ctx = make_ctx ?telemetry seed in
  let scenario =
    if infected then Cloudskulk.Scenarios.infected ctx else Cloudskulk.Scenarios.clean ctx
  in
  Printf.printf "scenario: %s\n" scenario.Cloudskulk.Scenarios.description;
  let open Cloudskulk.Detector_service in
  let policy =
    {
      sweep_every = Sim.Time.minutes 10.;
      dedup_every_n_sweeps = 2;
      probe_pages = 8;
      probe_budget = 1;
      event_log_capacity = 64;
    }
  in
  (* the scenario runs on its own forked context; the service and the
     clock we drive must live on that engine, not the root one *)
  let sctx = scenario.Cloudskulk.Scenarios.ctx in
  let service = create ~policy sctx scenario.Cloudskulk.Scenarios.host in
  register_tenant service ~name:"tenant-a" ~env:(fun () ->
      scenario.Cloudskulk.Scenarios.detector_env);
  start_monitor service;
  ignore
    (Sim.Engine.run_for (Sim.Ctx.engine sctx) (Sim.Time.minutes (float_of_int minutes)));
  stop service;
  Harness.Flags.export ~metrics_out ~trace_out telemetry;
  Printf.printf "monitored for %d virtual minutes (%d audit sweeps)\n" minutes
    (sweeps_run service);
  List.iter (fun e -> Printf.printf "  %s\n" (event_to_string e)) (events service);
  if events_dropped service > 0 then
    Printf.printf "  (+%d events dropped by the ring buffer)\n" (events_dropped service);
  (match tenant_state service "tenant-a" with
  | None -> ()
  | Some st ->
    Printf.printf "tenant-a: %d probes, last verdict %s\n" st.probes
      (match st.last_verdict with
      | Some v -> Cloudskulk.Dedup_detector.verdict_to_string v
      | None -> "none"));
  (match time_to_detect service "tenant-a" with
  | Some d -> Printf.printf "time to detect: %.1f min\n" (Sim.Time.to_s d /. 60.)
  | None -> Printf.printf "time to detect: n/a\n");
  if budget_deferrals service > 0 then
    Printf.printf "probe-budget deferrals: %d\n" (budget_deferrals service);
  let detected = compromised_tenants service <> [] in
  if detected = infected then 0 else 2

(* trace: run a scenario and dump its trace *)
let dump_trace seed infected =
  let ctx = make_ctx seed in
  let scenario =
    if infected then Cloudskulk.Scenarios.infected ctx else Cloudskulk.Scenarios.clean ctx
  in
  List.iter
    (fun r -> Format.printf "%a@." Sim.Trace.pp_record r)
    (Sim.Trace.records (Sim.Ctx.trace scenario.Cloudskulk.Scenarios.ctx));
  0

let attack_cmd =
  let doc = "Install CloudSkulk against a fresh victim and print the report" in
  Cmd.v (Cmd.info "attack" ~doc) Term.(const attack $ seed_arg)

let detect_cmd =
  let doc = "Run the memory-deduplication detector" in
  let infected =
    Arg.(value & flag & info [ "infected" ] ~doc:"Install CloudSkulk first.")
  in
  let syncs =
    Arg.(
      value & flag
      & info [ "attacker-syncs" ] ~doc:"Model the attacker synchronising page changes.")
  in
  Cmd.v (Cmd.info "detect" ~doc)
    Term.(
      const detect $ seed_arg $ infected $ syncs $ Harness.Flags.faults
      $ Harness.Flags.metrics_out $ Harness.Flags.trace_out)

let monitor_cmd =
  let doc = "Execute a QEMU monitor command against a fresh guest" in
  let cmd_arg =
    Arg.(value & opt string "info qtree" & info [ "cmd" ] ~docv:"CMD" ~doc:"Monitor command.")
  in
  Cmd.v (Cmd.info "monitor" ~doc) Term.(const monitor $ seed_arg $ cmd_arg)

let audit_cmd =
  let doc = "Run the behavioral install auditor against a host" in
  let infected = Arg.(value & flag & info [ "infected" ] ~doc:"Install CloudSkulk first.") in
  Cmd.v (Cmd.info "audit" ~doc) Term.(const audit_host $ seed_arg $ infected)

(* Zero minutes is a valid (empty) run; a negative count is a usage
   error, reported by cmdliner before anything is simulated. *)
let non_negative_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | Some _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected a non-negative integer" s))
    | None -> Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let soc_cmd =
  let doc = "Run the continuous SOC detector monitor against a tenant" in
  let infected = Arg.(value & flag & info [ "infected" ] ~doc:"Install CloudSkulk first.") in
  let minutes =
    Arg.(
      value
      & opt non_negative_int 60
      & info [ "minutes" ] ~docv:"MIN" ~doc:"Virtual minutes to monitor for.")
  in
  Cmd.v (Cmd.info "soc" ~doc)
    Term.(
      const soc $ seed_arg $ infected $ minutes $ Harness.Flags.metrics_out
      $ Harness.Flags.trace_out)

let trace_cmd =
  let doc = "Dump the simulation trace of a scenario" in
  let infected = Arg.(value & flag & info [ "infected" ] ~doc:"Infected scenario.") in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const dump_trace $ seed_arg $ infected)

let main =
  let doc = "CloudSkulk: nested-VM rootkit and detection, simulated" in
  Cmd.group (Cmd.info "cloudskulk" ~doc)
    [ attack_cmd; detect_cmd; monitor_cmd; audit_cmd; soc_cmd; trace_cmd ]

let () = exit (Cmd.eval' main)
