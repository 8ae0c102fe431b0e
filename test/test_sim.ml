(* Tests for the discrete-event simulation engine: time arithmetic,
   deterministic RNG, statistics, the event queue, and engine
   scheduling semantics. *)

let time_tests =
  let open Sim.Time in
  [
    Alcotest.test_case "unit constructors agree" `Quick (fun () ->
        Alcotest.(check int64) "1 us = 1000 ns" 1000L (to_ns (us 1.));
        Alcotest.(check int64) "1 ms" 1_000_000L (to_ns (ms 1.));
        Alcotest.(check int64) "1 s" 1_000_000_000L (to_ns (s 1.));
        Alcotest.(check int64) "1 min" 60_000_000_000L (to_ns (minutes 1.)));
    Alcotest.test_case "arithmetic" `Quick (fun () ->
        let a = ms 2. and b = ms 3. in
        Alcotest.(check int64) "add" (to_ns (ms 5.)) (to_ns (add a b));
        Alcotest.(check int64) "sub" (to_ns (ms 1.)) (to_ns (diff b a));
        Alcotest.(check int64) "mul" (to_ns (ms 1.)) (to_ns (mul a 0.5)));
    Alcotest.test_case "comparisons" `Quick (fun () ->
        Alcotest.(check bool) "lt" true (ms 1. < ms 2.);
        Alcotest.(check bool) "ge" true (ms 2. >= ms 2.);
        Alcotest.(check bool) "max" true (equal (ms 2.) (max (ms 1.) (ms 2.))));
    Alcotest.test_case "infinity" `Quick (fun () ->
        Alcotest.(check bool) "is_infinite" true (is_infinite infinity);
        Alcotest.(check bool) "zero finite" false (is_infinite zero);
        Alcotest.(check bool) "inf > everything" true (infinity > s 1e9));
    Alcotest.test_case "pp picks a readable unit" `Quick (fun () ->
        Alcotest.(check string) "ns" "42ns" (to_string (ns 42));
        Alcotest.(check string) "us" "1.50us" (to_string (ns 1500));
        Alcotest.(check string) "ms" "2.00ms" (to_string (ms 2.));
        Alcotest.(check string) "s" "3.000s" (to_string (s 3.)));
    Alcotest.test_case "conversions round-trip" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "to_s" 1.5 (to_s (s 1.5));
        Alcotest.(check (float 1e-9)) "to_ms" 250. (to_ms (ms 250.));
        Alcotest.(check (float 1e-9)) "to_us" 7. (to_us (us 7.)));
  ]

let rng_tests =
  let open Sim.Rng in
  [
    Alcotest.test_case "deterministic per seed" `Quick (fun () ->
        let a = create 7 and b = create 7 in
        for _ = 1 to 100 do
          Alcotest.(check int64) "same stream" (int64 a) (int64 b)
        done);
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = create 7 and b = create 8 in
        Alcotest.(check bool) "diverge" false (Int64.equal (int64 a) (int64 b)));
    Alcotest.test_case "split streams are independent" `Quick (fun () ->
        let a = create 7 and a' = create 7 in
        let c = split a and c' = split a' in
        (* drawing from a must not perturb c *)
        ignore (int64 a);
        Alcotest.(check int64) "c unaffected" (int64 c') (int64 c));
    Alcotest.test_case "int respects bound" `Quick (fun () ->
        let r = create 3 in
        for _ = 1 to 10_000 do
          let v = int r 17 in
          Alcotest.(check bool) "0 <= v < 17" true (v >= 0 && v < 17)
        done);
    Alcotest.test_case "float respects bound" `Quick (fun () ->
        let r = create 3 in
        for _ = 1 to 1000 do
          let v = float r 2.5 in
          Alcotest.(check bool) "in range" true (v >= 0. && v < 2.5)
        done);
    Alcotest.test_case "lognormal noise has mean ~1" `Quick (fun () ->
        let r = create 11 in
        let n = 20_000 in
        let acc = ref 0. in
        for _ = 1 to n do
          acc := !acc +. lognormal_noise r ~rsd:0.1
        done;
        let mean = !acc /. float_of_int n in
        Alcotest.(check bool) "mean close to 1" true (Float.abs (mean -. 1.) < 0.01));
    Alcotest.test_case "lognormal with rsd 0 is exactly 1" `Quick (fun () ->
        let r = create 11 in
        Alcotest.(check (float 0.)) "unity" 1. (lognormal_noise r ~rsd:0.));
    Alcotest.test_case "exponential has requested mean" `Quick (fun () ->
        let r = create 13 in
        let n = 50_000 in
        let acc = ref 0. in
        for _ = 1 to n do
          acc := !acc +. exponential r 5.
        done;
        let mean = !acc /. float_of_int n in
        Alcotest.(check bool) "mean ~5" true (Float.abs (mean -. 5.) < 0.15));
  ]

let rng_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"Rng.int always within bound" ~count:1000
         QCheck.(pair small_int (int_range 1 1_000_000))
         (fun (seed, bound) ->
           let r = Sim.Rng.create seed in
           let v = Sim.Rng.int r bound in
           v >= 0 && v < bound));
  ]

let stats_tests =
  let open Sim.Stats in
  [
    Alcotest.test_case "mean and stddev" `Quick (fun () ->
        let t = of_list [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
        Alcotest.(check (float 1e-9)) "mean" 5. (mean t);
        Alcotest.(check (float 1e-6)) "stddev (sample)" 2.13809 (stddev t));
    Alcotest.test_case "empty accumulator" `Quick (fun () ->
        let t = create () in
        Alcotest.(check int) "count" 0 (count t);
        Alcotest.(check bool) "mean nan" true (Float.is_nan (mean t)));
    Alcotest.test_case "rsd" `Quick (fun () ->
        let t = of_list [ 10.; 10.; 10. ] in
        Alcotest.(check (float 1e-9)) "zero spread" 0. (rsd t));
    Alcotest.test_case "min max sum" `Quick (fun () ->
        let t = of_list [ 3.; 1.; 2. ] in
        Alcotest.(check (float 0.)) "min" 1. (min t);
        Alcotest.(check (float 0.)) "max" 3. (max t);
        Alcotest.(check (float 0.)) "sum" 6. (sum t));
    Alcotest.test_case "percentile cache invalidates on add" `Quick (fun () ->
        (* the sorted-sample array is cached between percentile calls;
           adding a sample must invalidate it, including one that sorts
           before everything already seen *)
        let t = of_list [ 5.; 1.; 3. ] in
        Alcotest.(check (float 1e-9)) "p100 primes cache" 5. (percentile t 100.);
        Alcotest.(check (float 1e-9)) "p0 reuses cache" 1. (percentile t 0.);
        add t 0.5;
        Alcotest.(check (float 1e-9)) "p0 sees new min" 0.5 (percentile t 0.);
        add t 9.;
        Alcotest.(check (float 1e-9)) "p100 sees new max" 9. (percentile t 100.);
        Alcotest.(check (float 1e-9)) "p50 consistent" 3. (percentile t 50.));
    Alcotest.test_case "percentiles interpolate" `Quick (fun () ->
        let t = of_list [ 1.; 2.; 3.; 4.; 5. ] in
        Alcotest.(check (float 1e-9)) "p0" 1. (percentile t 0.);
        Alcotest.(check (float 1e-9)) "p50" 3. (percentile t 50.);
        Alcotest.(check (float 1e-9)) "p100" 5. (percentile t 100.);
        Alcotest.(check (float 1e-9)) "p25" 2. (percentile t 25.));
    Alcotest.test_case "percent_change" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "+50%" 50. (percent_change ~from_:2. ~to_:3.);
        Alcotest.(check (float 1e-9)) "-25%" (-25.) (percent_change ~from_:4. ~to_:3.));
    Alcotest.test_case "add_time records nanoseconds" `Quick (fun () ->
        let t = create () in
        add_time t (Sim.Time.us 2.);
        Alcotest.(check (float 1e-9)) "2000 ns" 2000. (mean t));
    Alcotest.test_case "samples preserved in order" `Quick (fun () ->
        let t = of_list [ 5.; 1.; 3. ] in
        Alcotest.(check (list (float 0.))) "order" [ 5.; 1.; 3. ] (samples t));
    Alcotest.test_case "summary carries percentiles" `Quick (fun () ->
        let t = of_list (List.init 100 (fun i -> float_of_int (i + 1))) in
        let s = summary t in
        Alcotest.(check (float 1e-9)) "p50" (percentile t 50.) s.p50;
        Alcotest.(check (float 1e-9)) "p95" (percentile t 95.) s.p95;
        Alcotest.(check (float 1e-9)) "p99" (percentile t 99.) s.p99;
        Alcotest.(check bool) "ordered" true (s.p50 <= s.p95 && s.p95 <= s.p99);
        Alcotest.(check bool) "bounded" true (s.min <= s.p50 && s.p99 <= s.max));
  ]

let stats_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"Welford mean equals naive mean" ~count:300
         QCheck.(list_of_size Gen.(int_range 1 100) (float_range (-1e6) 1e6))
         (fun xs ->
           let t = Sim.Stats.of_list xs in
           let naive = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
           Float.abs (Sim.Stats.mean t -. naive) <= 1e-6 *. Float.max 1. (Float.abs naive)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"percentile is monotone" ~count:300
         QCheck.(
           pair
             (list_of_size Gen.(int_range 1 50) (float_range (-1e3) 1e3))
             (pair (float_range 0. 100.) (float_range 0. 100.)))
         (fun (xs, (p1, p2)) ->
           let t = Sim.Stats.of_list xs in
           let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
           Sim.Stats.percentile t lo <= Sim.Stats.percentile t hi +. 1e-9));
  ]

let queue_tests =
  let open Sim.Event_queue in
  [
    Alcotest.test_case "pops in time order" `Quick (fun () ->
        let q = create () in
        ignore (push q (Sim.Time.ms 3.) "c");
        ignore (push q (Sim.Time.ms 1.) "a");
        ignore (push q (Sim.Time.ms 2.) "b");
        let pop_payload () = match pop q with Some (_, p) -> p | None -> "?" in
        Alcotest.(check string) "first" "a" (pop_payload ());
        Alcotest.(check string) "second" "b" (pop_payload ());
        Alcotest.(check string) "third" "c" (pop_payload ()));
    Alcotest.test_case "ties break by insertion order" `Quick (fun () ->
        let q = create () in
        ignore (push q (Sim.Time.ms 1.) "first");
        ignore (push q (Sim.Time.ms 1.) "second");
        (match pop q with
        | Some (_, p) -> Alcotest.(check string) "fifo at same time" "first" p
        | None -> Alcotest.fail "empty"));
    Alcotest.test_case "cancel removes event" `Quick (fun () ->
        let q = create () in
        let h = push q (Sim.Time.ms 1.) "dead" in
        ignore (push q (Sim.Time.ms 2.) "live");
        cancel q h;
        Alcotest.(check int) "size" 1 (size q);
        (match pop q with
        | Some (_, p) -> Alcotest.(check string) "skips cancelled" "live" p
        | None -> Alcotest.fail "empty"));
    Alcotest.test_case "cancel after pop is a no-op" `Quick (fun () ->
        let q = create () in
        let h = push q (Sim.Time.ms 1.) "x" in
        ignore (pop q);
        cancel q h;
        Alcotest.(check int) "size stays 0" 0 (size q);
        Alcotest.(check bool) "empty" true (pop q = None));
    Alcotest.test_case "peek does not remove" `Quick (fun () ->
        let q = create () in
        ignore (push q (Sim.Time.ms 5.) "x");
        Alcotest.(check bool) "peek some" true (peek_time q <> None);
        Alcotest.(check int) "still there" 1 (size q));
    Alcotest.test_case "many events stay sorted" `Quick (fun () ->
        let q = create () in
        let r = Sim.Rng.create 5 in
        for i = 0 to 999 do
          ignore (push q (Sim.Time.ns (Sim.Rng.int r 1_000_000)) i)
        done;
        let rec drain last n =
          match pop q with
          | None -> n
          | Some (t, _) ->
            Alcotest.(check bool) "non-decreasing" true Sim.Time.(t >= last);
            drain t (n + 1)
        in
        Alcotest.(check int) "all drained" 1000 (drain Sim.Time.zero 0));
  ]

let engine_tests =
  let open Sim.Engine in
  [
    Alcotest.test_case "clock starts at zero" `Quick (fun () ->
        let e = create () in
        Alcotest.(check int64) "zero" 0L (Sim.Time.to_ns (now e)));
    Alcotest.test_case "schedule_after fires at the right time" `Quick (fun () ->
        let e = create () in
        let fired_at = ref Sim.Time.zero in
        ignore (schedule_after e (Sim.Time.ms 5.) (fun () -> fired_at := now e));
        ignore (run e);
        Alcotest.(check int64) "at 5ms" (Sim.Time.to_ns (Sim.Time.ms 5.))
          (Sim.Time.to_ns !fired_at));
    Alcotest.test_case "scheduling in the past raises" `Quick (fun () ->
        let e = create () in
        ignore (schedule_after e (Sim.Time.ms 5.) (fun () -> ()));
        ignore (run e);
        Alcotest.check_raises "past" (Invalid_argument "x") (fun () ->
            try ignore (schedule_at e (Sim.Time.ms 1.) (fun () -> ()))
            with Invalid_argument _ -> raise (Invalid_argument "x")));
    Alcotest.test_case "run ~until stops and advances clock" `Quick (fun () ->
        let e = create () in
        let count = ref 0 in
        ignore (schedule_after e (Sim.Time.ms 1.) (fun () -> incr count));
        ignore (schedule_after e (Sim.Time.ms 10.) (fun () -> incr count));
        let final = run ~until:(Sim.Time.ms 5.) e in
        Alcotest.(check int) "only first fired" 1 !count;
        Alcotest.(check int64) "clock at until" (Sim.Time.to_ns (Sim.Time.ms 5.))
          (Sim.Time.to_ns final);
        ignore (run e);
        Alcotest.(check int) "second fires later" 2 !count);
    Alcotest.test_case "cancel prevents execution" `Quick (fun () ->
        let e = create () in
        let fired = ref false in
        let h = schedule_after e (Sim.Time.ms 1.) (fun () -> fired := true) in
        cancel e h;
        ignore (run e);
        Alcotest.(check bool) "not fired" false !fired);
    Alcotest.test_case "periodic stops when f returns false" `Quick (fun () ->
        let e = create () in
        let n = ref 0 in
        periodic e ~every:(Sim.Time.ms 1.) (fun () ->
            incr n;
            !n < 5);
        ignore (run e);
        Alcotest.(check int) "five ticks" 5 !n);
    Alcotest.test_case "events scheduled by events run in order" `Quick (fun () ->
        let e = create () in
        let log = ref [] in
        ignore
          (schedule_after e (Sim.Time.ms 1.) (fun () ->
               log := "a" :: !log;
               ignore (schedule_after e (Sim.Time.ms 1.) (fun () -> log := "c" :: !log))));
        ignore (schedule_after e (Sim.Time.us 1500.) (fun () -> log := "b" :: !log));
        ignore (run e);
        Alcotest.(check (list string)) "order a b c" [ "a"; "b"; "c" ] (List.rev !log));
    Alcotest.test_case "run_for advances exactly" `Quick (fun () ->
        let e = create () in
        ignore (run_for e (Sim.Time.s 2.));
        Alcotest.(check int64) "2 s" (Sim.Time.to_ns (Sim.Time.s 2.)) (Sim.Time.to_ns (now e)));
    Alcotest.test_case "fork_rng gives reproducible streams" `Quick (fun () ->
        let e1 = create ~seed:9 () and e2 = create ~seed:9 () in
        let r1 = fork_rng e1 and r2 = fork_rng e2 in
        Alcotest.(check int64) "same" (Sim.Rng.int64 r1) (Sim.Rng.int64 r2));
    Alcotest.test_case "events_processed counts" `Quick (fun () ->
        let e = create () in
        for _ = 1 to 7 do
          ignore (schedule_after e (Sim.Time.ms 1.) (fun () -> ()))
        done;
        ignore (run e);
        Alcotest.(check int) "seven" 7 (events_processed e));
  ]

let trace_tests =
  let open Sim.Trace in
  let messages t = List.map (fun (r : record) -> r.message) (records t) in
  [
    Alcotest.test_case "emit and read back" `Quick (fun () ->
        let t = create () in
        emitf t (Sim.Time.ms 1.) Info ~component:"vm" "started";
        emitf t (Sim.Time.ms 2.) Warn ~component:"ksm" "slow";
        Alcotest.(check (list string)) "chronological" [ "started"; "slow" ] (messages t));
    Alcotest.test_case "capacity drops oldest" `Quick (fun () ->
        let t = create ~capacity:3 () in
        for i = 1 to 5 do
          emitf t Sim.Time.zero Info ~component:"x" "%d" i
        done;
        Alcotest.(check (list string)) "newest 3 kept" [ "3"; "4"; "5" ] (messages t));
    Alcotest.test_case "emitf formats like Printf" `Quick (fun () ->
        let t = create () in
        emitf t (Sim.Time.ms 3.) Warn ~component:"ksm" "pass %d merged %d pages (%.1f%%)" 7
          120 99.5;
        (match records t with
        | [ r ] ->
          Alcotest.(check string) "message" "pass 7 merged 120 pages (99.5%)" r.message;
          Alcotest.(check string) "component" "ksm" r.component;
          Alcotest.(check bool) "level" true (r.level = Warn)
        | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs)));
  ]

let () =
  Alcotest.run "sim"
    [
      ("time", time_tests);
      ("rng", rng_tests @ rng_props);
      ("stats", stats_tests @ stats_props);
      ("event_queue", queue_tests);
      ("engine", engine_tests);
      ("trace", trace_tests);
    ]
