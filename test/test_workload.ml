(* Tests for workload generators: background dirtying behaviour, the
   kernel-compile timing shape (Fig 2), netperf (Fig 3), filebench, and
   the lmbench calibration (Tables II-IV). *)

let mk_env ?(level = Vmm.Level.l0) ?(pages = 4096) ?(noise_rsd = 0.) () =
  let ctx = Sim.Ctx.create () in
  let ft = Memory.Frame_table.create ctx in
  let ram = Memory.Address_space.create_root ft ~name:"ws" ~pages in
  Workload.Exec_env.make ~noise_rsd ~ctx ~level ~ram ~rng:(Sim.Rng.create 7) ()

let background_tests =
  [
    Alcotest.test_case "idle dirties a trickle" `Quick (fun () ->
        let env = mk_env () in
        let h = Workload.Background.start env (Workload.Idle.background ()) in
        ignore (Sim.Engine.run_for env.Workload.Exec_env.engine (Sim.Time.s 10.));
        Workload.Background.stop h;
        let dirtied = Memory.Dirty.dirty_count (Memory.Address_space.dirty env.Workload.Exec_env.ram) in
        (* 2 pages/s for 10 s = ~20 *)
        Alcotest.(check bool) "about 20" true (dirtied > 5 && dirtied < 40));
    Alcotest.test_case "compile dirties at its configured rate" `Quick (fun () ->
        let env = mk_env ~pages:262144 () in
        let h =
          Workload.Background.start env
            (Workload.Kernel_compile.background ~pages_per_second:10_000. ())
        in
        ignore (Sim.Engine.run_for env.Workload.Exec_env.engine (Sim.Time.s 5.));
        Workload.Background.stop h;
        let dirtied = Memory.Dirty.dirty_count (Memory.Address_space.dirty env.Workload.Exec_env.ram) in
        (* sequential cursor -> 50k unique pages in 5 s *)
        Alcotest.(check bool) "about 50k" true (dirtied > 45_000 && dirtied < 55_000));
    Alcotest.test_case "filebench stays within its working set" `Quick (fun () ->
        let env = mk_env ~pages:262144 () in
        let h = Workload.Background.start env (Workload.Filebench.background ()) in
        ignore (Sim.Engine.run_for env.Workload.Exec_env.engine (Sim.Time.s 30.));
        Workload.Background.stop h;
        let dirtied = Memory.Dirty.dirty_count (Memory.Address_space.dirty env.Workload.Exec_env.ram) in
        let ws_pages = 96 * 1024 * 1024 / Memory.Page.size_bytes in
        Alcotest.(check bool) "bounded by working set" true (dirtied <= ws_pages));
    Alcotest.test_case "stop actually stops" `Quick (fun () ->
        let env = mk_env () in
        let h = Workload.Background.start env (Workload.Idle.background ()) in
        ignore (Sim.Engine.run_for env.Workload.Exec_env.engine (Sim.Time.s 1.));
        Workload.Background.stop h;
        let ticks = Workload.Background.ticks h in
        ignore (Sim.Engine.run_for env.Workload.Exec_env.engine (Sim.Time.s 5.));
        Alcotest.(check int) "no more ticks" ticks (Workload.Background.ticks h));
  ]

let compile_tests =
  [
    Alcotest.test_case "Fig 2 shape: L0(ccache) << L1 < L2" `Quick (fun () ->
        let run level =
          let env = mk_env ~level () in
          Sim.Time.to_s (Workload.Kernel_compile.run env)
        in
        let l0 = run Vmm.Level.l0 in
        let l1 = run Vmm.Level.l1 in
        let l2 = run Vmm.Level.l2 in
        let pct a b = (b -. a) /. a *. 100. in
        (* paper: +280% L0->L1 (ccache on L0 only), +25.7% L1->L2 *)
        Alcotest.(check bool)
          (Printf.sprintf "L0->L1 +%.0f%% in [250,330]" (pct l0 l1))
          true
          (pct l0 l1 > 250. && pct l0 l1 < 330.);
        Alcotest.(check bool)
          (Printf.sprintf "L1->L2 +%.1f%% in [20,32]" (pct l1 l2))
          true
          (pct l1 l2 > 20. && pct l1 l2 < 32.));
    Alcotest.test_case "without the ccache asymmetry L1 is within a few % of L0" `Quick
      (fun () ->
        let run level =
          let env = mk_env ~level () in
          Sim.Time.to_s (Workload.Kernel_compile.run ~ccache_at_l0:false env)
        in
        let l0 = run Vmm.Level.l0 and l1 = run Vmm.Level.l1 in
        let pct = (l1 -. l0) /. l0 *. 100. in
        Alcotest.(check bool) (Printf.sprintf "+%.1f%% < 5%%" pct) true (pct < 5.));
    Alcotest.test_case "compile advances the virtual clock" `Quick (fun () ->
        let env = mk_env () in
        let before = Sim.Engine.now env.Workload.Exec_env.engine in
        let d = Workload.Kernel_compile.run env in
        let after = Sim.Engine.now env.Workload.Exec_env.engine in
        Alcotest.(check bool) "clock moved by duration" true
          (Sim.Time.equal (Sim.Time.diff after before) d));
    Alcotest.test_case "compile duration scale matches the testbed (minutes)" `Quick (fun () ->
        let env = mk_env ~level:Vmm.Level.l1 () in
        let d = Sim.Time.to_s (Workload.Kernel_compile.run env) in
        (* L1 kernel compile on the paper's i7 testbed: tens of minutes *)
        Alcotest.(check bool) (Printf.sprintf "%.0f s in [600, 1200]" d) true
          (d > 600. && d < 1200.));
  ]

let netperf_tests =
  [
    Alcotest.test_case "Fig 3 shape: throughput within noise across levels" `Quick (fun () ->
        let mean_of level =
          let env = mk_env ~level ~noise_rsd:0.02 () in
          let stats = Sim.Stats.create () in
          for _ = 1 to 5 do
            let r = Workload.Netperf.run env in
            Sim.Stats.add stats r.Workload.Netperf.throughput_mbit_s
          done;
          Sim.Stats.mean stats
        in
        let l0 = mean_of Vmm.Level.l0 in
        let l1 = mean_of Vmm.Level.l1 in
        let l2 = mean_of Vmm.Level.l2 in
        let spread = (Float.max l0 (Float.max l1 l2) -. Float.min l0 (Float.min l1 l2)) /. l0 in
        Alcotest.(check bool)
          (Printf.sprintf "spread %.1f%% < 15%%" (spread *. 100.))
          true (spread < 0.15));
    Alcotest.test_case "throughput near 1GbE line rate" `Quick (fun () ->
        let env = mk_env () in
        let r = Workload.Netperf.run env in
        Alcotest.(check bool)
          (Printf.sprintf "%.0f Mbit/s in [800, 1000]" r.Workload.Netperf.throughput_mbit_s)
          true
          (r.Workload.Netperf.throughput_mbit_s > 800.
          && r.Workload.Netperf.throughput_mbit_s < 1000.));
    Alcotest.test_case "L1 has the largest run-to-run variance (paper RSDs)" `Quick (fun () ->
        let rsd_of level =
          let env = mk_env ~level () in
          let stats = Sim.Stats.create () in
          for _ = 1 to 30 do
            let r = Workload.Netperf.run env in
            Sim.Stats.add stats r.Workload.Netperf.throughput_mbit_s
          done;
          Sim.Stats.rsd stats
        in
        let r0 = rsd_of Vmm.Level.l0 in
        let r1 = rsd_of Vmm.Level.l1 in
        let r2 = rsd_of Vmm.Level.l2 in
        Alcotest.(check bool) "L1 noisiest" true (r1 > r0 && r1 > r2));
  ]

let lmbench_tests =
  [
    Alcotest.test_case "Table II: arithmetic rows virtually level-independent" `Quick (fun () ->
        List.iter
          (fun (name, op) ->
            let c0 = Vmm.Cost_model.cost_ns ~level:Vmm.Level.l0 op in
            let c1 = Vmm.Cost_model.cost_ns ~level:Vmm.Level.l1 op in
            let c2 = Vmm.Cost_model.cost_ns ~level:Vmm.Level.l2 op in
            Alcotest.(check bool) (name ^ " L1 == L0") true (Float.abs (c1 -. c0) < 0.001);
            Alcotest.(check bool)
              (name ^ " L2 within 4%")
              true
              ((c2 -. c0) /. c0 < 0.04))
          Workload.Lmbench.arithmetic);
    Alcotest.test_case "Table II L0 column values" `Quick (fun () ->
        let expect =
          [
            ("integer bit", 0.26); ("integer add", 0.13); ("integer div", 5.94);
            ("integer mod", 6.37); ("float add", 0.75); ("float mul", 1.25);
            ("float div", 3.31); ("double add", 0.75); ("double mul", 1.25);
            ("double div", 5.06);
          ]
        in
        List.iter
          (fun (name, ns) ->
            match List.assoc_opt name Workload.Lmbench.arithmetic with
            | None -> Alcotest.failf "missing %s" name
            | Some op ->
              Alcotest.(check (float 0.005))
                name ns
                (Vmm.Cost_model.cost_ns ~level:Vmm.Level.l0 op))
          expect);
    Alcotest.test_case "Table IV: create-0k collapses at L2" `Quick (fun () ->
        let row = List.find (fun r -> r.Workload.Lmbench.size_kb = 0) Workload.Lmbench.fs in
        let rate level =
          Workload.Lmbench.ops_per_second
            ~ns_per_op:(Vmm.Cost_model.cost_ns ~level row.Workload.Lmbench.create)
        in
        let r0 = rate Vmm.Level.l0 and r2 = rate Vmm.Level.l2 in
        Alcotest.(check bool) "L0 about 126k/s" true (Float.abs (r0 -. 126_418.) < 2000.);
        Alcotest.(check bool) "L2 about 2.4k/s" true (Float.abs (r2 -. 2_430.) < 200.));
    Alcotest.test_case "Table IV: deletions stay near baseline at L2" `Quick (fun () ->
        List.iter
          (fun row ->
            let rate level =
              Workload.Lmbench.ops_per_second
                ~ns_per_op:(Vmm.Cost_model.cost_ns ~level row.Workload.Lmbench.delete)
            in
            let r0 = rate Vmm.Level.l0 and r2 = rate Vmm.Level.l2 in
            Alcotest.(check bool)
              (Printf.sprintf "delete-%dk within 25%%" row.Workload.Lmbench.size_kb)
              true
              (r2 > r0 *. 0.75))
          Workload.Lmbench.fs);
    Alcotest.test_case "measure applies noise and advances the clock" `Quick (fun () ->
        let env = mk_env ~noise_rsd:0.05 () in
        let op = List.assoc "pipe latency" Workload.Lmbench.processes in
        let before = Sim.Engine.now env.Workload.Exec_env.engine in
        let v = Workload.Lmbench.measure env op in
        Alcotest.(check bool) "positive" true (v > 0.);
        Alcotest.(check bool) "clock advanced" true
          Sim.Time.(Sim.Engine.now env.Workload.Exec_env.engine > before));
  ]

let exec_env_tests =
  [
    Alcotest.test_case "consume advances time by the op cost" `Quick (fun () ->
        let env = mk_env () in
        let op = Vmm.Cost_model.op ~name:"x" ~cpu:(Sim.Time.ms 1.) () in
        let d = Workload.Exec_env.consume env op 10 in
        Alcotest.(check bool) "about 10ms" true
          (Float.abs (Sim.Time.to_ms d -. 10.) < 0.01));
    Alcotest.test_case "dirty_sequential wraps" `Quick (fun () ->
        let env = mk_env ~pages:16 () in
        let cursor = ref 10 in
        Workload.Exec_env.dirty_sequential env ~cursor 10;
        Alcotest.(check int) "cursor advanced" 20 !cursor;
        (* pages 10..15 and 0..3 dirtied *)
        Alcotest.(check bool) "wrapped" true
          (Memory.Dirty.is_dirty (Memory.Address_space.dirty env.Workload.Exec_env.ram) 0));
    Alcotest.test_case "dirty_region stays in bounds" `Quick (fun () ->
        let env = mk_env ~pages:100 () in
        Workload.Exec_env.dirty_region env ~offset:50 ~length:10 200;
        let d = Memory.Address_space.dirty env.Workload.Exec_env.ram in
        for i = 0 to 49 do
          Alcotest.(check bool) "below region clean" false (Memory.Dirty.is_dirty d i)
        done;
        for i = 60 to 99 do
          Alcotest.(check bool) "above region clean" false (Memory.Dirty.is_dirty d i)
        done);
  ]

let () =
  Alcotest.run "workload"
    [
      ("background", background_tests);
      ("kernel_compile", compile_tests);
      ("netperf", netperf_tests);
      ("lmbench", lmbench_tests);
      ("exec_env", exec_env_tests);
    ]
