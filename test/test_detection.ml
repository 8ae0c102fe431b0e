(* End-to-end tests of the memory-deduplication detector (paper Section
   VI, Figs 5 and 6): scenario 1 (clean) and scenario 2 (CloudSkulk
   installed), the timing shapes, verdicts, edge cases, and the
   attacker-sync evasion ablation. *)

let run_detector scenario =
  match Cloudskulk.Dedup_detector.run scenario.Cloudskulk.Scenarios.detector_env with
  | Ok o -> o
  | Error e -> Alcotest.fail ("detector: " ^ e)

let mean (m : Cloudskulk.Dedup_detector.measurement) = m.summary.Sim.Stats.mean

let detection_tests =
  [
    Alcotest.test_case "scenario 1 (clean): t1 >> t2 ~ t0, verdict clean (Fig 5)" `Slow
      (fun () ->
        let sc = Cloudskulk.Scenarios.clean (Sim.Ctx.create ()) in
        let o = run_detector sc in
        Alcotest.(check bool) "verdict" true
          (o.Cloudskulk.Dedup_detector.verdict = Cloudskulk.Dedup_detector.No_nested_vm);
        Alcotest.(check bool) "t1 >> t0" true (mean o.t1 > 3. *. mean o.t0);
        Alcotest.(check bool) "t2 ~ t0" true (mean o.t2 < 2. *. mean o.t0);
        (* ground truth: every t1 page was merged, no t2 page was *)
        Alcotest.(check (float 0.01)) "t1 all CoW" 1.0 o.t1.cow_fraction;
        Alcotest.(check (float 0.01)) "t2 no CoW" 0.0 o.t2.cow_fraction);
    Alcotest.test_case "scenario 2 (infected): t1 ~ t2 >> t0, verdict detected (Fig 6)" `Slow
      (fun () ->
        let sc = Cloudskulk.Scenarios.infected (Sim.Ctx.create ()) in
        let o = run_detector sc in
        Alcotest.(check bool) "verdict" true
          (o.Cloudskulk.Dedup_detector.verdict = Cloudskulk.Dedup_detector.Nested_vm_detected);
        Alcotest.(check bool) "t1 >> t0" true (mean o.t1 > 3. *. mean o.t0);
        Alcotest.(check bool) "t2 >> t0" true (mean o.t2 > 3. *. mean o.t0);
        let ratio = mean o.t1 /. mean o.t2 in
        Alcotest.(check bool) "t1 ~ t2" true (ratio > 0.8 && ratio < 1.25));
    Alcotest.test_case "per-page series have the figures' shapes" `Slow (fun () ->
        let clean = run_detector (Cloudskulk.Scenarios.clean (Sim.Ctx.create ())) in
        Alcotest.(check int) "100 pages per series" 100
          (Array.length clean.Cloudskulk.Dedup_detector.t1.per_page_ns);
        (* Fig 5: every t1 page is individually slow, every t2 page fast *)
        let t2_max = Array.fold_left Float.max 0. clean.t2.per_page_ns in
        let t1_min = Array.fold_left Float.min Float.infinity clean.t1.per_page_ns in
        Alcotest.(check bool) "series separated" true (t1_min > t2_max));
    Alcotest.test_case "detector works against a software-emulated (VT-x-free) RITM" `Slow
      (fun () ->
        (* the evasion that defeats the VMCS baseline does not help
           against memory deduplication *)
        let config =
          { Cloudskulk.Install.default_config with
            Cloudskulk.Install.use_vtx = false }
        in
        let sc = Cloudskulk.Scenarios.infected ~install_config:config (Sim.Ctx.create ()) in
        (* VMCS scan is blind... *)
        Alcotest.(check bool) "vmcs scan misses" false
          (Cloudskulk.Vmcs_scan.scan_host sc.Cloudskulk.Scenarios.host).verdict;
        (* ...the dedup detector is not *)
        let o = run_detector sc in
        Alcotest.(check bool) "dedup detects" true
          (o.Cloudskulk.Dedup_detector.verdict = Cloudskulk.Dedup_detector.Nested_vm_detected));
    Alcotest.test_case "attacker syncing changes evades, at a cost (Section VI-D)" `Slow
      (fun () ->
        let sc = Cloudskulk.Scenarios.infected ~attacker_syncs_changes:true (Sim.Ctx.create ()) in
        let o = run_detector sc in
        (* with a perfectly synced mirror, t2 merges against... nothing
           original, so the detector reads it as clean: the evasion
           works mechanically; the paper's argument is that it cannot
           scale, which the abl-sync bench prices *)
        Alcotest.(check bool) "evaded" true
          (o.Cloudskulk.Dedup_detector.verdict = Cloudskulk.Dedup_detector.No_nested_vm));
    Alcotest.test_case "file never delivered -> inconclusive" `Slow (fun () ->
        let sc = Cloudskulk.Scenarios.clean (Sim.Ctx.create ()) in
        let env =
          { sc.Cloudskulk.Scenarios.detector_env with
            Cloudskulk.Dedup_detector.deliver_to_guest = (fun _ -> Ok ());
            mutate_in_guest = (fun ~name:_ ~salt:_ -> Ok ());
          }
        in
        (match Cloudskulk.Dedup_detector.run env with
        | Ok o ->
          (match o.Cloudskulk.Dedup_detector.verdict with
          | Cloudskulk.Dedup_detector.Inconclusive _ -> ()
          | v ->
            Alcotest.failf "expected inconclusive, got %s"
              (Cloudskulk.Dedup_detector.verdict_to_string v))
        | Error e -> Alcotest.fail e));
    Alcotest.test_case "delivery failure propagates" `Quick (fun () ->
        let sc = Cloudskulk.Scenarios.clean (Sim.Ctx.create ()) in
        let env =
          { sc.Cloudskulk.Scenarios.detector_env with
            Cloudskulk.Dedup_detector.deliver_to_guest = (fun _ -> Error "web interface down");
          }
        in
        Alcotest.(check bool) "error" true
          (Result.is_error (Cloudskulk.Dedup_detector.run env)));
    Alcotest.test_case "small probe sizes still detect (Section VI-D claim)" `Slow (fun () ->
        let sc = Cloudskulk.Scenarios.infected (Sim.Ctx.create ()) in
        (match Cloudskulk.Dedup_detector.run ~file_pages:4 sc.Cloudskulk.Scenarios.detector_env with
        | Ok o ->
          Alcotest.(check bool) "detected with 4 pages" true
            (o.Cloudskulk.Dedup_detector.verdict
            = Cloudskulk.Dedup_detector.Nested_vm_detected)
        | Error e -> Alcotest.fail e));
    Alcotest.test_case "verdicts are deterministic per seed" `Slow (fun () ->
        let run seed =
          (run_detector (Cloudskulk.Scenarios.clean (Sim.Ctx.create ~seed ()))).Cloudskulk.Dedup_detector.verdict
        in
        Alcotest.(check bool) "same verdict" true (run 1 = run 1));
    Alcotest.test_case "measure_t0 alone gives a private-write baseline" `Quick (fun () ->
        let sc = Cloudskulk.Scenarios.clean (Sim.Ctx.create ()) in
        match Cloudskulk.Dedup_detector.measure_t0 sc.Cloudskulk.Scenarios.detector_env with
        | Ok m ->
          Alcotest.(check (float 0.001)) "no CoW" 0.0 m.Cloudskulk.Dedup_detector.cow_fraction;
          Alcotest.(check bool) "sub-microsecond" true (mean m < 1000.)
        | Error e -> Alcotest.fail e);
  ]

let accuracy_tests =
  [
    Alcotest.test_case "detector is right in 10/10 mixed trials" `Slow (fun () ->
        let correct = ref 0 in
        for seed = 1 to 5 do
          let clean = run_detector (Cloudskulk.Scenarios.clean (Sim.Ctx.create ~seed ())) in
          if clean.Cloudskulk.Dedup_detector.verdict = Cloudskulk.Dedup_detector.No_nested_vm
          then incr correct;
          let infected = run_detector (Cloudskulk.Scenarios.infected (Sim.Ctx.create ~seed ())) in
          if
            infected.Cloudskulk.Dedup_detector.verdict
            = Cloudskulk.Dedup_detector.Nested_vm_detected
          then incr correct
        done;
        Alcotest.(check int) "10 of 10" 10 !correct);
  ]

let () =
  Alcotest.run "detection"
    [ ("dedup_detector", detection_tests); ("accuracy", accuracy_tests) ]
