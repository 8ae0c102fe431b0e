(* The streaming observability layer: Sim.Stats.Sketch rank-error and
   determinism contracts, the sketch-backed Stats accumulator, telemetry
   summary series (registration, export, merging, --jobs independence),
   and the detector service's bounded event ring and probe budget. *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  scan 0

(* Distance from the sketch's estimate [v] for quantile [q] to the
   nearest acceptable rank in [xs]: 0 when [v] splits the sorted samples
   at q*n, otherwise how many ranks off it is. *)
let rank_error xs q v =
  let n = Array.length xs in
  let below = Array.fold_left (fun a x -> if x < v then a + 1 else a) 0 xs in
  let upto = Array.fold_left (fun a x -> if x <= v then a + 1 else a) 0 xs in
  let target = q *. float_of_int n in
  if target < float_of_int below then float_of_int below -. target
  else if target > float_of_int upto then target -. float_of_int upto
  else 0.

let quantile_grid = [ 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99 ]

(* The documented conservative bound for the default compression. *)
let rank_bound n =
  (2. *. float_of_int n /. float_of_int 128) +. 2.

let check_rank_errors ?(scale = 1.) name xs sk =
  let bound = scale *. rank_bound (Array.length xs) in
  List.iter
    (fun q ->
      let err = rank_error xs q (Sim.Stats.Sketch.quantile sk q) in
      if err > bound then
        Alcotest.failf "%s: q=%.2f rank error %.1f > bound %.1f (n=%d)" name q err bound
          (Array.length xs))
    quantile_grid

let sketch_of_array xs =
  let sk = Sim.Stats.Sketch.create () in
  Array.iter (Sim.Stats.Sketch.add sk) xs;
  sk

let sketch_tests =
  let open Sim.Stats in
  [
    Alcotest.test_case "empty sketch is nan; single value is exact" `Quick (fun () ->
        let sk = Sketch.create () in
        Alcotest.(check bool) "empty -> nan" true (Float.is_nan (Sketch.quantile sk 0.5));
        Sketch.add sk 5.;
        List.iter
          (fun q ->
            Alcotest.(check (float 0.)) "single value" 5. (Sketch.quantile sk q))
          (0. :: 1. :: quantile_grid));
    Alcotest.test_case "quantiles are monotone and anchored at min/max" `Quick (fun () ->
        let xs = Array.init 3000 (fun i -> float_of_int ((i * 7919) mod 1237)) in
        let sk = sketch_of_array xs in
        Alcotest.(check (float 0.)) "q0 = min" (Sketch.min sk) (Sketch.quantile sk 0.);
        Alcotest.(check (float 0.)) "q1 = max" (Sketch.max sk) (Sketch.quantile sk 1.);
        let prev = ref neg_infinity in
        List.iter
          (fun q ->
            let v = Sketch.quantile sk q in
            if v < !prev then Alcotest.failf "quantiles not monotone at q=%.2f" q;
            prev := v)
          (0. :: quantile_grid @ [ 1. ]));
    Alcotest.test_case "adversarial sorted input stays within the bound" `Quick (fun () ->
        let n = 5000 in
        let asc = Array.init n float_of_int in
        check_rank_errors "ascending" asc (sketch_of_array asc);
        let desc = Array.init n (fun i -> float_of_int (n - 1 - i)) in
        check_rank_errors "descending" desc (sketch_of_array desc));
    Alcotest.test_case "identical add sequences give identical estimates" `Quick (fun () ->
        let xs = Array.init 2500 (fun i -> float_of_int ((i * 31) mod 997)) in
        let a = sketch_of_array xs and b = sketch_of_array xs in
        List.iter
          (fun q ->
            Alcotest.(check (float 0.)) "bit-equal" (Sketch.quantile a q)
              (Sketch.quantile b q))
          quantile_grid;
        Alcotest.(check int) "same centroid count" (Sketch.centroids a)
          (Sketch.centroids b));
    Alcotest.test_case "copy is independent of the original" `Quick (fun () ->
        let xs = Array.init 1000 (fun i -> float_of_int (i mod 173)) in
        let a = sketch_of_array xs in
        let b = Sketch.copy a in
        let before = Sketch.quantile b 0.5 in
        Array.iter (Sketch.add a) (Array.make 500 1e9);
        Alcotest.(check (float 0.)) "copy unaffected" before (Sketch.quantile b 0.5);
        Alcotest.(check int) "counts diverge" 1500 (Sketch.count a));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random streams stay within the documented rank error"
         ~count:40
         QCheck.(list_of_size Gen.(int_range 200 1500) (int_range (-1_000_000) 1_000_000))
         (fun ints ->
           let xs = Array.of_list (List.map float_of_int ints) in
           check_rank_errors "random" xs (sketch_of_array xs);
           true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"merged sketches stay within twice the rank error"
         ~count:30
         QCheck.(
           pair
             (list_of_size Gen.(int_range 100 800) (int_range (-1_000_000) 1_000_000))
             (list_of_size Gen.(int_range 100 800) (int_range (-1_000_000) 1_000_000)))
         (fun (l1, l2) ->
           let a = sketch_of_array (Array.of_list (List.map float_of_int l1)) in
           let b = sketch_of_array (Array.of_list (List.map float_of_int l2)) in
           Sim.Stats.Sketch.merge_into ~into:a b;
           let all = Array.of_list (List.map float_of_int (l1 @ l2)) in
           Alcotest.(check int) "count adds" (Array.length all) (Sim.Stats.Sketch.count a);
           check_rank_errors ~scale:2. "merged" all a;
           true));
  ]

let stats_tests =
  let open Sim.Stats in
  [
    Alcotest.test_case "moments stay exact after spilling into the sketch" `Quick
      (fun () ->
        let st = create ~sample_cap:16 () in
        for i = 0 to 99 do
          add st (float_of_int i)
        done;
        Alcotest.(check bool) "sketched" true (is_sketched st);
        Alcotest.(check (list (float 0.))) "samples gone" [] (samples st);
        Alcotest.(check int) "count" 100 (count st);
        Alcotest.(check (float 1e-9)) "mean exact" 49.5 (mean st);
        Alcotest.(check (float 0.)) "min" 0. (min st);
        Alcotest.(check (float 0.)) "max" 99. (max st);
        Alcotest.(check (float 1e-9)) "sum" 4950. (sum st);
        (* uniform unit spacing: rank error translates to value error *)
        let tol = rank_bound 100 in
        Alcotest.(check (float tol)) "p50 near exact" 49.5 (percentile st 50.));
    Alcotest.test_case "below the cap percentiles match of_list exactly" `Quick
      (fun () ->
        let st = create () in
        List.iter (add st) [ 9.; 1.; 5.; 3.; 7. ];
        let reference = of_list [ 9.; 1.; 5.; 3.; 7. ] in
        Alcotest.(check bool) "not sketched" false (is_sketched st);
        List.iter
          (fun p ->
            Alcotest.(check (float 0.)) "exact" (percentile reference p)
              (percentile st p))
          [ 0.; 25.; 50.; 90.; 100. ]);
    Alcotest.test_case "merge_into under the cap concatenates samples" `Quick (fun () ->
        let a = of_list [ 1.; 2.; 3. ] and b = of_list [ 10.; 20. ] in
        merge_into ~into:a b;
        Alcotest.(check int) "count" 5 (count a);
        Alcotest.(check bool) "still exact" false (is_sketched a);
        Alcotest.(check (list (float 0.))) "into then src order" [ 1.; 2.; 3.; 10.; 20. ]
          (samples a);
        let reference = of_list [ 1.; 2.; 3.; 10.; 20. ] in
        Alcotest.(check (float 0.)) "p50 matches of_list" (percentile reference 50.)
          (percentile a 50.);
        Alcotest.(check (float 1e-9)) "mean" (mean reference) (mean a));
    Alcotest.test_case "merge_into combines moments exactly across the cap" `Quick
      (fun () ->
        let a = create () in
        List.iter (add a) [ 4.; 8.; 15. ];
        let b = create ~sample_cap:4 () in
        for i = 0 to 9 do
          add b (float_of_int (16 + i))
        done;
        Alcotest.(check bool) "src sketched" true (is_sketched b);
        merge_into ~into:a b;
        Alcotest.(check bool) "merge forced the sketch path" true (is_sketched a);
        let reference =
          of_list ([ 4.; 8.; 15. ] @ List.init 10 (fun i -> float_of_int (16 + i)))
        in
        Alcotest.(check int) "count" (count reference) (count a);
        Alcotest.(check (float 1e-9)) "mean exact" (mean reference) (mean a);
        Alcotest.(check (float 1e-9)) "stddev exact" (stddev reference) (stddev a);
        Alcotest.(check (float 0.)) "min" (min reference) (min a);
        Alcotest.(check (float 0.)) "max" (max reference) (max a));
  ]

let telemetry_tests =
  let open Sim.Telemetry in
  [
    Alcotest.test_case "summary registers, records and exports quantiles" `Quick
      (fun () ->
        let t = create () in
        let s = summary (Some t) ~component:"m" "lat_ns" in
        Alcotest.(check (option int)) "empty at registration" (Some 0)
          (summary_count t "m_lat_ns");
        for i = 1 to 100 do
          record s (float_of_int i)
        done;
        Alcotest.(check (option int)) "count" (Some 100) (summary_count t "m_lat_ns");
        (match summary_quantile t "m_lat_ns" 0.5 with
        | Some v -> Alcotest.(check (float (rank_bound 100))) "median" 50.5 v
        | None -> Alcotest.fail "no quantile");
        let prom = prometheus_string t in
        Alcotest.(check bool) "TYPE line" true
          (contains_sub prom "# TYPE m_lat_ns summary");
        Alcotest.(check bool) "quantile series" true
          (contains_sub prom {|m_lat_ns{quantile="0.5"}|});
        Alcotest.(check bool) "count series" true (contains_sub prom "m_lat_ns_count 100"));
    Alcotest.test_case "kind mismatch with an existing series raises" `Quick (fun () ->
        let t = create () in
        let _ = counter (Some t) ~component:"c" "x" in
        Alcotest.(check bool) "counter vs summary rejected" true
          (try
             let _ = summary (Some t) ~component:"c" "x" in
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "merge_into adds summary counts" `Quick
      (fun () ->
        let a = create () and b = create () in
        let sa = summary (Some a) ~component:"m" "lat_ns" in
        let sb = summary (Some b) ~component:"m" "lat_ns" in
        record sa 1.;
        record sb 2.;
        record sb 3.;
        merge_into ~into:a b;
        Alcotest.(check (option int)) "3 observations" (Some 3)
          (summary_count a "m_lat_ns"));
    Alcotest.test_case "jsonl carries summaries; empty ones have no quantiles" `Quick
      (fun () ->
        let t = create () in
        let s = summary (Some t) ~component:"m" "lat_ns" in
        let _ = summary (Some t) ~component:"m" "idle_ns" in
        record s 7.;
        let out = jsonl_string t in
        Alcotest.(check bool) "recorded summary present" true
          (contains_sub out {|"summary":"m_lat_ns"|});
        Alcotest.(check bool) "empty summary has empty quantiles" true
          (contains_sub out {|"summary":"m_idle_ns","count":0,"sum":0,"quantiles":{}|}));
    Alcotest.test_case "summary exports are independent of --jobs" `Quick (fun () ->
        let run jobs =
          let sink = create () in
          let ctx = Sim.Ctx.create ~seed:7 ~telemetry:sink () in
          ignore
            (Sim.Parallel.map_ctx ~jobs ~ctx ~trials:8 (fun i cctx ->
                 let s =
                   summary (Sim.Ctx.telemetry cctx) ~component:"trial" "work_ns"
                 in
                 for k = 0 to 20 + i do
                   record s (float_of_int ((i * 100) + k))
                 done));
          prometheus_string sink
        in
        Alcotest.(check string) "jobs 1 = jobs 4" (run 1) (run 4));
  ]

(* --- detector service: bounded ring, budget, monitor determinism ------- *)

let target_config ?(name = "guest0") () =
  let c = { (Vmm.Qemu_config.default ~name) with Vmm.Qemu_config.memory_mb = 64 } in
  Vmm.Qemu_config.with_hostfwd c [ (2222, 22) ]

let mk_world ?(seed = 42) () =
  let ctx = Sim.Ctx.create ~seed () in
  let uplink = Net.Fabric.Switch.create ctx ~name:"uplink" ~link:Net.Link.lan_1gbe in
  let host = Vmm.Hypervisor.create_l0 ctx ~name:"host" ~uplink ~addr:"192.168.1.100" in
  (ctx, host)

let working_env ctx host vm () =
  {
    Cloudskulk.Dedup_detector.ctx;
    host;
    deliver_to_guest =
      (fun image -> Result.map (fun _ -> ()) (Vmm.Vm.load_file vm image));
    mutate_in_guest =
      (fun ~name ~salt ->
        match Vmm.Vm.file_offset vm name with
        | None -> Error "no such file"
        | Some off ->
          let pages =
            match List.find_opt (fun (n, _, _) -> n = name) (Vmm.Vm.loaded_files vm) with
            | Some (_, _, p) -> p
            | None -> 0
          in
          let ram = Vmm.Vm.ram vm in
          for i = 0 to pages - 1 do
            let c = Memory.Address_space.read ram (off + i) in
            ignore (Memory.Address_space.write ram (off + i) (Memory.Page.Content.mutate c ~salt))
          done;
          Ok ());
  }

let service_tests =
  let open Cloudskulk.Detector_service in
  [
    Alcotest.test_case "event ring keeps the newest events and counts drops" `Quick
      (fun () ->
        let ctx, host = mk_world () in
        (* a probe every 5 min (+/- jitter), each one failing *)
        let policy =
          { default_policy with
            sweep_every = Sim.Time.minutes 5.;
            dedup_every_n_sweeps = 1;
            event_log_capacity = 3 }
        in
        let service = create ~policy ctx host in
        register_tenant service ~name:"ghost" ~env:(fun () ->
            {
              Cloudskulk.Dedup_detector.ctx;
              host;
              deliver_to_guest = (fun _ -> Error "agent unreachable");
              mutate_in_guest = (fun ~name:_ ~salt:_ -> Ok ());
            });
        let streamed = ref [] in
        set_event_hook service (Some (fun ev -> streamed := ev :: !streamed));
        start_monitor service;
        ignore (Sim.Engine.run_for (Sim.Ctx.engine ctx) (Sim.Time.minutes 30.));
        let all = List.rev !streamed in
        let n = List.length all in
        Alcotest.(check bool) "overflowed" true (n > 3);
        Alcotest.(check bool) "all are probe failures" true
          (List.for_all (function Probe_failed _ -> true | _ -> false) all);
        Alcotest.(check int) "ring holds capacity" 3 (List.length (events service));
        Alcotest.(check int) "overflow counted" (n - 3) (events_dropped service);
        Alcotest.(check (list string)) "the retained tail is the newest, oldest first"
          (List.map event_to_string (List.filteri (fun i _ -> i >= n - 3) all))
          (List.map event_to_string (events service)));
    Alcotest.test_case "probe budget defers the second tenant to the next sweep" `Quick
      (fun () ->
        let ctx, host = mk_world () in
        let vm = Result.get_ok (Vmm.Hypervisor.launch host (target_config ())) in
        let policy = { default_policy with probe_budget = 1 } in
        let service = create ~policy ctx host in
        register_tenant service ~name:"a" ~env:(working_env ctx host vm);
        register_tenant service ~name:"b" ~env:(working_env ctx host vm);
        start_monitor service;
        (* both probes land in the first scan window *)
        pull_probes_forward service;
        ignore (Sim.Engine.run_for (Sim.Ctx.engine ctx) (Sim.Time.minutes 1.));
        Alcotest.(check bool) "b deferred" true
          (List.exists
             (function Budget_exhausted { tenant = "b"; _ } -> true | _ -> false)
             (events service));
        Alcotest.(check int) "one deferral" 1 (budget_deferrals service);
        (match tenant_state service "b" with
        | Some st -> Alcotest.(check int) "b not probed yet" 0 st.probes
        | None -> Alcotest.fail "tenant b missing");
        (* the next window opens after [sweep_every]; the retry pads it
           by at most 5 % *)
        ignore
          (Sim.Engine.run_for (Sim.Ctx.engine ctx)
             (Sim.Time.add policy.sweep_every (Sim.Time.minutes 2.)));
        match tenant_state service "b" with
        | Some st ->
          Alcotest.(check int) "b probed on the next window" 1 st.probes;
          Alcotest.(check bool) "b has a verdict" true (Option.is_some st.last_verdict)
        | None -> Alcotest.fail "tenant b missing");
    Alcotest.test_case "continuous monitor is deterministic per seed" `Quick (fun () ->
        let observe () =
          let ctx = Sim.Ctx.create ~seed:11 () in
          let sc =
            Cloudskulk.Scenarios.infected ~customer_memory_mb:256
              ~install_config:
                { Cloudskulk.Install.default_config with
                  Cloudskulk.Install.use_vtx = false }
              ctx
          in
          let sctx = sc.Cloudskulk.Scenarios.ctx in
          let policy =
            { default_policy with
              sweep_every = Sim.Time.minutes 10.;
              dedup_every_n_sweeps = 2;
              probe_budget = 1 }
          in
          let service = create ~policy sctx sc.Cloudskulk.Scenarios.host in
          register_tenant service ~name:"tenant-a" ~env:(fun () ->
              sc.Cloudskulk.Scenarios.detector_env);
          start_monitor service;
          ignore (Sim.Engine.run_for (Sim.Ctx.engine sctx) (Sim.Time.minutes 50.));
          stop service;
          ( List.map event_to_string (events service),
            time_to_detect service "tenant-a",
            sweeps_run service )
        in
        let ev1, ttd1, sweeps1 = observe () in
        let ev2, ttd2, sweeps2 = observe () in
        Alcotest.(check (list string)) "same events" ev1 ev2;
        Alcotest.(check int) "same sweeps" sweeps1 sweeps2;
        Alcotest.(check bool) "detected" true (Option.is_some ttd1);
        Alcotest.(check bool) "same time-to-detect" true (ttd1 = ttd2));
  ]

let () =
  Alcotest.run "observability"
    [
      ("sketch", sketch_tests);
      ("stats", stats_tests);
      ("telemetry_summary", telemetry_tests);
      ("detector_streaming", service_tests);
    ]
