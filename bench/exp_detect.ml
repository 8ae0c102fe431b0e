(* Section VI-C: detector accuracy across repeated trials on clean and
   infected hosts, plus the two baseline detectors' behaviour on the
   same scenarios. *)

let verdict_of scenario =
  match Cloudskulk.Dedup_detector.run scenario.Cloudskulk.Scenarios.detector_env with
  | Ok o -> Cloudskulk.Dedup_detector.verdict_to_string o.Cloudskulk.Dedup_detector.verdict
  | Error e -> "error: " ^ e

(* Fault-profile variant: the same accuracy protocol with channel
   faults injected into the install's live migration. An install that
   aborts under the profile is reported, not counted as a verdict. *)
let run_with_faults ~trials ~jobs ~ctx =
  Bench_util.section
    (Printf.sprintf "Detection accuracy under channel faults (profile: %s)"
       (Sim.Fault.profile_name (Sim.Ctx.faults ctx)));
  let results =
    Sim.Parallel.map_ctx ~jobs ~ctx ~trials (fun _ cctx ->
        match Cloudskulk.Scenarios.infected_result cctx with
        | Ok sc ->
          let outcome =
            match sc.Cloudskulk.Scenarios.install_report with
            | Some r ->
              Printf.sprintf "%s (install %s)" r.Cloudskulk.Install.migration_outcome
                (Sim.Time.to_string r.Cloudskulk.Install.total_time)
            | None -> "no install report"
          in
          (outcome, verdict_of sc)
        | Error f ->
          (* render exactly what the raising surface used to print, so
             faulted runs stay byte-identical to the historical output *)
          ( "install failed: Scenarios." ^ Cloudskulk.Scenarios.install_failure_to_string f,
            "-" ))
  in
  let detected = ref 0 and attempted = ref 0 in
  let rows =
    List.mapi
      (fun i (outcome, verdict) ->
        if verdict <> "-" then begin
          incr attempted;
          if
            verdict
            = Cloudskulk.Dedup_detector.verdict_to_string
                Cloudskulk.Dedup_detector.Nested_vm_detected
          then incr detected
        end;
        [ Printf.sprintf "infected #%d" (i + 1); outcome; verdict ])
      results
  in
  Bench_util.table ~header:[ "trial"; "migration outcome"; "dedup detector verdict" ] ~rows;
  Printf.printf "\n  detected: %d / %d installs that landed (%d/%d attempts survived)\n"
    !detected !attempted !attempted trials;
  Bench_util.note
    "faults only stretch the install (or abort it); a landed rootkit is detected exactly \
     as in the fault-free runs - the detector keys on merge state, not timing"

let run { Harness.Experiment.trials; jobs; shards = _; ctx } =
  if not (Sim.Fault.is_none (Sim.Ctx.faults ctx)) then run_with_faults ~trials ~jobs ~ctx
  else begin
  Bench_util.section "Detection accuracy (Section VI-C): repeated trials";
  (* Each trial is self-contained (own engine, own seed) and returns its
     verdicts; printing happens afterwards in trial order, so the output
     is byte-identical whatever [jobs] is. Per-trial telemetry lands in
     child sinks that are merged in trial order, so exports are
     byte-identical across [jobs] too. *)
  let verdicts =
    Sim.Parallel.map_ctx ~jobs ~ctx ~trials (fun _ cctx ->
        let v_clean = verdict_of (Cloudskulk.Scenarios.clean cctx) in
        let v_inf = verdict_of (Cloudskulk.Scenarios.infected cctx) in
        (v_clean, v_inf))
  in
  let rows = ref [] in
  let correct = ref 0 in
  List.iteri
    (fun i (v_clean, v_inf) ->
      let seed = i + 1 in
      if
        v_clean
        = Cloudskulk.Dedup_detector.verdict_to_string Cloudskulk.Dedup_detector.No_nested_vm
      then incr correct;
      rows := [ Printf.sprintf "clean #%d" seed; v_clean ] :: !rows;
      if
        v_inf
        = Cloudskulk.Dedup_detector.verdict_to_string Cloudskulk.Dedup_detector.Nested_vm_detected
      then incr correct;
      rows := [ Printf.sprintf "infected #%d" seed; v_inf ] :: !rows)
    verdicts;
  Bench_util.table ~header:[ "trial"; "dedup detector verdict" ] ~rows:(List.rev !rows);
  Printf.printf "\n  accuracy: %d / %d\n" !correct (2 * trials);
  (* baselines on one representative pair *)
  Bench_util.subsection "baseline detectors on the same scenarios";
  let base = Sim.Ctx.with_seed ctx 1 in
  let clean = Cloudskulk.Scenarios.clean base in
  let infected = Cloudskulk.Scenarios.infected base in
  let infected_soft =
    Cloudskulk.Scenarios.infected
      ~install_config:
        { Cloudskulk.Install.default_config with
          Cloudskulk.Install.use_vtx = false }
      base
  in
  let vmcs sc = (Cloudskulk.Vmcs_scan.scan_host sc.Cloudskulk.Scenarios.host).verdict in
  Bench_util.table
    ~header:[ "scenario"; "VMCS memory scan"; "dedup detector" ]
    ~rows:
      [
        [ "clean"; string_of_bool (vmcs clean); verdict_of clean ];
        [ "infected (VT-x)"; string_of_bool (vmcs infected); verdict_of infected ];
        [ "infected (no VT-x)"; string_of_bool (vmcs infected_soft); verdict_of infected_soft ];
      ];
  Bench_util.paper_vs_measured
    ~paper:"dedup detection effective in both scenarios; VMCS scan fails without VT-x"
    ~measured:"as above: dedup catches the no-VT-x variant the VMCS scan misses"
  end

let spec =
  Harness.Experiment.make ~id:"detect" ~doc:"Section VI-C: detection accuracy (honours --faults)"
    run
