(* Tests for the Domain-based trial fan-out (Sim.Parallel): ordering,
   exception propagation, and the determinism contract the bench
   harness depends on - running detect trials at --jobs 8 must produce
   exactly the verdicts of --jobs 1. *)

let map_tests =
  [
    Alcotest.test_case "results come back in trial order" `Quick (fun () ->
        Alcotest.(check (list int))
          "squares" (List.init 32 (fun i -> i * i))
          (Sim.Parallel.map ~jobs:4 32 (fun i -> i * i)));
    Alcotest.test_case "parallel result equals sequential result" `Quick (fun () ->
        let f i = (i * 37) mod 11 in
        Alcotest.(check (list int)) "same" (Sim.Parallel.map ~jobs:1 20 f)
          (Sim.Parallel.map ~jobs:3 20 f));
    Alcotest.test_case "more workers than trials" `Quick (fun () ->
        Alcotest.(check (list int)) "three trials" [ 0; 1; 2 ]
          (Sim.Parallel.map ~jobs:16 3 (fun i -> i)));
    Alcotest.test_case "jobs 0 means all cores" `Quick (fun () ->
        Alcotest.(check (list int)) "runs" (List.init 5 Fun.id)
          (Sim.Parallel.map ~jobs:0 5 (fun i -> i)));
    Alcotest.test_case "zero trials" `Quick (fun () ->
        Alcotest.(check (list int)) "empty" [] (Sim.Parallel.map ~jobs:4 0 (fun i -> i)));
    Alcotest.test_case "negative trial count raises" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Sim.Parallel.map ~jobs:2 (-1) (fun i -> i));
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "lowest failing trial's exception wins" `Quick (fun () ->
        (* trials 5, 6 and 7 all raise; sequential execution would
           surface trial 5 first, so the parallel runner must too *)
        Alcotest.(check string) "trial 5" "trial-5"
          (try
             ignore
               (Sim.Parallel.map ~jobs:4 8 (fun i ->
                    if i >= 5 then failwith (Printf.sprintf "trial-%d" i) else i));
             "no exception"
           with Failure m -> m));
    Alcotest.test_case "a worker domain's exception keeps its backtrace" `Quick (fun () ->
        (* both trials wait for each other, so they run on different
           domains; only the one off the main domain raises *)
        Printexc.record_backtrace true;
        let arrived = Atomic.make 0 in
        match
          Sim.Parallel.map ~jobs:2 2 (fun _ ->
              Atomic.incr arrived;
              while Atomic.get arrived < 2 do
                Domain.cpu_relax ()
              done;
              if not (Domain.is_main_domain ()) then failwith "worker")
        with
        | _ -> Alcotest.fail "no failure raised"
        | exception Failure _ ->
          let first = List.hd (String.split_on_char '\n' (Printexc.get_backtrace ())) in
          Alcotest.(check bool) ("raise point kept: " ^ first) true
            (String.starts_with ~prefix:"Raised at Stdlib.failwith" first));
    Alcotest.test_case "available_cores is positive" `Quick (fun () ->
        Alcotest.(check bool) "positive" true (Sim.Parallel.available_cores () > 0));
  ]

(* One detect trial as the bench harness runs it: build both scenarios
   at the trial's seed, return the verdicts. *)
let detect_trial ~seed =
  let verdict sc =
    match Cloudskulk.Dedup_detector.run sc.Cloudskulk.Scenarios.detector_env with
    | Ok o -> Cloudskulk.Dedup_detector.verdict_to_string o.Cloudskulk.Dedup_detector.verdict
    | Error e -> Alcotest.fail ("detector: " ^ e)
  in
  let clean = verdict (Cloudskulk.Scenarios.clean (Sim.Ctx.create ~seed ())) in
  let infected = verdict (Cloudskulk.Scenarios.infected (Sim.Ctx.create ~seed ())) in
  (clean, infected)

(* The faulted variant of the same trial: channel faults injected into
   the install's migration. Everything observable is returned - verdict,
   migration outcome string, install wall time - so the comparison below
   catches any divergence in the fault schedule, not just the verdict. *)
let faulted_trial ~seed =
  match Cloudskulk.Scenarios.infected_result (Sim.Ctx.create ~seed ~faults:Sim.Fault.flaky ()) with
  | Ok sc ->
    let verdict =
      match Cloudskulk.Dedup_detector.run sc.Cloudskulk.Scenarios.detector_env with
      | Ok o -> Cloudskulk.Dedup_detector.verdict_to_string o.Cloudskulk.Dedup_detector.verdict
      | Error e -> "error: " ^ e
    in
    let outcome, total =
      match sc.Cloudskulk.Scenarios.install_report with
      | Some r ->
        ( r.Cloudskulk.Install.migration_outcome,
          Sim.Time.to_string r.Cloudskulk.Install.total_time )
      | None -> ("no report", "-")
    in
    (verdict, outcome ^ " / " ^ total)
  | Error f -> ("install failed", Cloudskulk.Scenarios.install_failure_to_string f)

let determinism_tests =
  [
    Alcotest.test_case "detect verdicts at --jobs 8 equal --jobs 1" `Slow (fun () ->
        let sequential = Sim.Parallel.map ~jobs:1 4 (fun i -> detect_trial ~seed:(1 + i)) in
        let parallel = Sim.Parallel.map ~jobs:8 4 (fun i -> detect_trial ~seed:(1 + i)) in
        Alcotest.(check (list (pair string string))) "identical" sequential parallel;
        Alcotest.(check int) "all trials ran" 4 (List.length parallel));
    Alcotest.test_case "fault-injected trials at --jobs 8 equal --jobs 1" `Slow (fun () ->
        (* each trial owns a private fault RNG forked from its own
           engine, so the injected outages/jitter - and therefore the
           outcome strings and timings - must not depend on scheduling *)
        let sequential = Sim.Parallel.map ~jobs:1 4 (fun i -> faulted_trial ~seed:(1 + i)) in
        let parallel = Sim.Parallel.map ~jobs:8 4 (fun i -> faulted_trial ~seed:(1 + i)) in
        Alcotest.(check (list (pair string string))) "identical" sequential parallel);
  ]

let () =
  Alcotest.run "parallel"
    [ ("map", map_tests); ("determinism", determinism_tests) ]
