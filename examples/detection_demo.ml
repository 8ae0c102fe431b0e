(* Detection demo: the defender's side of the paper (Section VI). Runs
   the memory-deduplication protocol against a clean host and an
   infected host, prints the t0/t1/t2 evidence, and contrasts with the
   VMCS-scanning baseline and its VT-x-free blind spot.

   Run with: dune exec examples/detection_demo.exe *)

let banner title = Printf.printf "\n=== %s ===\n" title

let show_outcome (o : Cloudskulk.Dedup_detector.outcome) =
  let line (m : Cloudskulk.Dedup_detector.measurement) meaning =
    Printf.printf "  %-3s mean %7.0f ns   (%s)\n" m.Cloudskulk.Dedup_detector.label
      m.summary.Sim.Stats.mean meaning
  in
  line o.Cloudskulk.Dedup_detector.t0 "baseline: file present nowhere else";
  line o.t1 "after delivering File-A to the guest";
  line o.t2 "after the guest changed every page";
  Printf.printf "  => %s\n"
    (Cloudskulk.Dedup_detector.verdict_to_string o.Cloudskulk.Dedup_detector.verdict)

let run_on label scenario =
  banner label;
  Printf.printf "%s\n" scenario.Cloudskulk.Scenarios.description;
  match Cloudskulk.Dedup_detector.run scenario.Cloudskulk.Scenarios.detector_env with
  | Ok o -> show_outcome o
  | Error e -> Printf.printf "  detector error: %s\n" e

let () =
  run_on "scenario 1: a clean host" (Cloudskulk.Scenarios.clean (Sim.Ctx.create ~seed:21 ()));
  run_on "scenario 2: CloudSkulk is installed"
    (Cloudskulk.Scenarios.infected (Sim.Ctx.create ~seed:21 ()));

  banner "why not just scan for VMCS structures? (Section VI-E)";
  let hw = Cloudskulk.Scenarios.infected (Sim.Ctx.create ~seed:22 ()) in
  let hw_scan = Cloudskulk.Vmcs_scan.scan_host hw.Cloudskulk.Scenarios.host in
  Printf.printf "VT-x rootkit:    VMCS scan over %d pages -> found %d signature(s): %s\n"
    hw_scan.Cloudskulk.Vmcs_scan.pages_scanned
    (List.length hw_scan.Cloudskulk.Vmcs_scan.hits)
    (if hw_scan.Cloudskulk.Vmcs_scan.verdict then "detected" else "missed");
  let soft =
    Cloudskulk.Scenarios.infected
      ~install_config:
        { Cloudskulk.Install.default_config with
          Cloudskulk.Install.use_vtx = false }
      (Sim.Ctx.create ~seed:22 ())
  in
  let soft_scan = Cloudskulk.Vmcs_scan.scan_host soft.Cloudskulk.Scenarios.host in
  Printf.printf "software rootkit: VMCS scan -> found %d signature(s): %s\n"
    (List.length soft_scan.Cloudskulk.Vmcs_scan.hits)
    (if soft_scan.Cloudskulk.Vmcs_scan.verdict then "detected" else "missed (the blind spot)");
  (match Cloudskulk.Dedup_detector.run soft.Cloudskulk.Scenarios.detector_env with
  | Ok o ->
    Printf.printf "dedup detector on the same software rootkit: %s\n"
      (Cloudskulk.Dedup_detector.verdict_to_string o.Cloudskulk.Dedup_detector.verdict)
  | Error e -> Printf.printf "error: %s\n" e);

  banner "why not VMI fingerprinting?";
  let sc = Cloudskulk.Scenarios.infected (Sim.Ctx.create ~seed:23 ()) in
  (match sc.Cloudskulk.Scenarios.ritm with
  | Some ritm ->
    let victim = ritm.Cloudskulk.Ritm.victim in
    let expected = Cloudskulk.Vmi_fingerprint.take victim in
    (* the admin introspects the VM they can see - GuestX *)
    (match Cloudskulk.Vmi_fingerprint.check ~expected ritm.Cloudskulk.Ritm.guestx with
    | Ok () -> Printf.printf "fingerprint of GuestX matches the victim's: impersonation holds\n"
    | Error ms ->
      Printf.printf "fingerprint differences: %s\n"
        (String.concat ", "
           (List.map (fun m -> m.Cloudskulk.Vmi_fingerprint.field) ms)))
  | None -> ());
  print_newline ()
