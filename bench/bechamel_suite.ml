(* Bechamel micro-benchmarks: one Test.make per paper table/figure,
   each timing the representative unit of work that experiment leans on
   (real wall-clock of the simulator, not virtual time). Useful to track
   the simulator's own performance. *)

open Bechamel
open Toolkit

(* Table I: rendering the CVE table. *)
let test_table1 =
  Test.make ~name:"table1/render-cve-table"
    (Staged.stage (fun () -> ignore (Cloudskulk.Cve_data.render_table ())))

(* Fig 2: pricing one kernel-compile unit at every level. *)
let test_fig2 =
  let op = Workload.Kernel_compile.unit_op Workload.Kernel_compile.default_config in
  Test.make ~name:"fig2/compile-unit-cost"
    (Staged.stage (fun () ->
         ignore (Vmm.Cost_model.cost_ns ~level:Vmm.Level.l0 op);
         ignore (Vmm.Cost_model.cost_ns ~level:Vmm.Level.l1 op);
         ignore (Vmm.Cost_model.cost_ns ~level:Vmm.Level.l2 op)))

(* Fig 3: one simulated netperf chunk sequence. *)
let test_fig3 =
  Test.make ~name:"fig3/flow-1MiB"
    (Staged.stage (fun () ->
         let ctx = Sim.Ctx.create () in
         ignore (Net.Flow.run ctx ~link:Net.Link.lan_1gbe ~bytes:(1024 * 1024) ())))

(* Fig 4: one small end-to-end migration. *)
let test_fig4 =
  Test.make ~name:"fig4/migrate-8MB-idle"
    (Staged.stage (fun () ->
         let config = { (Vmm.Qemu_config.default ~name:"guest0") with Vmm.Qemu_config.memory_mb = 8 } in
         let mp =
           Vmm.Layers.migration_pair ~ksm_config:Memory.Ksm.default_config ~config
             ~nested_dest:false (Sim.Ctx.create ())
         in
         match
           Migration.Precopy.migrate mp.Vmm.Layers.mp_ctx ~source:mp.Vmm.Layers.mp_source
             ~dest:mp.Vmm.Layers.mp_dest ()
         with
         | Ok _ -> ()
         | Error e -> failwith e))

(* Tables II-IV: pricing every lmbench row at every level. *)
let test_lmbench =
  Test.make ~name:"table2-4/lmbench-pricing"
    (Staged.stage (fun () ->
         List.iter
           (fun level ->
             List.iter
               (fun (_, op) -> ignore (Vmm.Cost_model.cost_ns ~level op))
               (Workload.Lmbench.arithmetic @ Workload.Lmbench.processes))
           [ Vmm.Level.l0; Vmm.Level.l1; Vmm.Level.l2 ]))

(* Figs 5-6: one 100-page write probe against a half-merged buffer. *)
let test_fig56 =
  Test.make ~name:"fig5-6/write-probe-100-pages"
    (Staged.stage (fun () ->
         let ft = Memory.Frame_table.create (Sim.Ctx.create ()) in
         let a = Memory.Address_space.create_root ft ~name:"a" ~pages:100 in
         let b = Memory.Address_space.create_root ft ~name:"b" ~pages:100 in
         for i = 0 to 99 do
           let c = Memory.Page.Content.of_int i in
           ignore (Memory.Address_space.write a i c);
           if i mod 2 = 0 then begin
             ignore (Memory.Address_space.write b i c);
             Memory.Address_space.remap b i (Memory.Address_space.frame_at a i)
           end
         done;
         let rng = Sim.Rng.create 1 in
         ignore (Memory.Write_probe.probe ~rng b ~offset:0 ~pages:100)))

(* Installation: KSM scanning one wakeup over a registered VM. *)
let test_install =
  Test.make ~name:"install/ksm-wakeup-4096-pages"
    (Staged.stage (fun () ->
         let ctx = Sim.Ctx.create () in
         let ft = Memory.Frame_table.create ctx in
         let ksm = Memory.Ksm.create ~config:Memory.Ksm.fast_config ctx ft in
         let s = Memory.Address_space.create_root ft ~name:"s" ~pages:4096 in
         Memory.Ksm.register ksm s;
         Memory.Ksm.scan_once ksm))

(* The KSM scan hot path at multi-tenant scale: 64 registered spaces of
   256 distinct pages each (16k pages), steady state - the population
   abl-density's host sees. Setup is hoisted so the benchmark times only
   [scan_once] wakeups. *)
let ksm_scan_world () =
  let ctx = Sim.Ctx.create () in
  let ft = Memory.Frame_table.create ctx in
  let ksm = Memory.Ksm.create ~config:Memory.Ksm.fast_config ctx ft in
  for k = 0 to 63 do
    let s = Memory.Address_space.create_root ft ~name:(Printf.sprintf "s%d" k) ~pages:256 in
    for i = 0 to 255 do
      ignore (Memory.Address_space.write s i (Memory.Page.Content.of_int ((k * 256) + i)))
    done;
    Memory.Ksm.register ksm s
  done;
  for _ = 1 to 4 do
    Memory.Ksm.scan_once ksm
  done;
  ksm

let test_ksm_scan_hot =
  let ksm = ksm_scan_world () in
  Test.make ~name:"perf/ksm-scan-once-64x256"
    (Staged.stage (fun () -> Memory.Ksm.scan_once ksm))

(* Dirty-bitmap iteration, 64k pages at 1 % dirty: what each pre-copy
   round's bookkeeping walks. *)
let dirty_wordscan_world () =
  let n = 65536 in
  let d = Memory.Dirty.create n in
  let r = Sim.Rng.create 7 in
  for _ = 1 to n / 100 do
    Memory.Dirty.set d (Sim.Rng.int r n)
  done;
  d

let test_dirty_iter =
  let d = dirty_wordscan_world () in
  Test.make ~name:"perf/dirty-fold-64k-sparse"
    (Staged.stage (fun () -> ignore (Memory.Dirty.fold_dirty d (fun acc i -> acc + i) 0)))

(* The event queue's steady-state regime at low and high occupancy,
   plus the binary-heap reference at high occupancy for comparison.
   Each run is one schedule+expire pair on a persistent prefilled
   queue (see Event_bench.steady_state_op). *)
let test_event_queue_1e3 =
  let op = Event_bench.steady_state_op Event_bench.wheel ~pending:1_000 in
  Test.make ~name:"event_queue/schedule-expire-1e3-pending" (Staged.stage op)

let test_event_queue_1e5 =
  let op = Event_bench.steady_state_op Event_bench.wheel ~pending:100_000 in
  Test.make ~name:"event_queue/schedule-expire-1e5-pending" (Staged.stage op)

let test_event_heap_1e5 =
  let op = Event_bench.steady_state_op Event_bench.heap ~pending:100_000 in
  Test.make ~name:"event_queue/heap-reference-1e5-pending" (Staged.stage op)

(* The quantile sketch's two hot operations: streaming inserts (every
   telemetry summary record) and the O(centroids) merge the --jobs
   fan-in performs per summary series. *)
let sketch_samples n = Array.init n (fun i -> float_of_int ((i * 2654435761) land 0xFFFFF))

let test_sketch_add =
  let xs = sketch_samples 4096 in
  Test.make ~name:"slo/sketch-add-4096"
    (Staged.stage (fun () ->
         let sk = Sim.Stats.Sketch.create () in
         Array.iter (Sim.Stats.Sketch.add sk) xs))

let test_sketch_merge =
  let src =
    let sk = Sim.Stats.Sketch.create () in
    Array.iter (Sim.Stats.Sketch.add sk) (sketch_samples 4096);
    sk
  in
  (* one persistent aggregate, like the per-series --jobs fan-in: the
     merge itself is O(centroids) with no allocation *)
  let into = Sim.Stats.Sketch.create () in
  Test.make ~name:"slo/sketch-merge-4096-into-aggregate"
    (Staged.stage (fun () -> Sim.Stats.Sketch.merge_into ~into src))

(* A whole (tiny) fleet end to end on the sharded runner: 2 hosts of
   2 VMs for 2 simulated minutes, mailboxes and barriers included -
   tracks the fixed cost of the partitioned engine around the hosts. *)
let test_fleet_small =
  Test.make ~name:"fleet/run-2-hosts-2min-2-shards"
    (Staged.stage (fun () ->
         let spec =
           {
             Fleet.Spec.default with
             Fleet.Spec.hosts = 2;
             racks = 1;
             tenants_per_host = 1;
             duration = Sim.Time.minutes 2.;
           }
         in
         ignore (Fleet.World.run ~jobs:1 ~shards:2 (Sim.Ctx.create ~seed:42 ()) spec)))

(* The parallel trial runner: fan 8 small self-contained engine trials
   over 2 domains (spawn + join dominate; the point is to track that
   fan-out overhead stays in the low milliseconds). *)
let test_parallel_runner =
  Test.make ~name:"perf/parallel-map-8-trials-2-jobs"
    (Staged.stage (fun () ->
         ignore
           (Sim.Parallel.map_seeds ~jobs:2 ~root_seed:1 ~trials:8 (fun ~seed ->
                let ctx = Sim.Ctx.create ~seed () in
                ignore (Net.Flow.run ctx ~link:Net.Link.lan_1gbe ~bytes:65536 ())))))

let tests =
  Test.make_grouped ~name:"cloudskulk"
    [
      test_table1;
      test_fig2;
      test_fig3;
      test_fig4;
      test_lmbench;
      test_fig56;
      test_install;
      test_ksm_scan_hot;
      test_dirty_iter;
      test_event_queue_1e3;
      test_event_queue_1e5;
      test_event_heap_1e5;
      test_sketch_add;
      test_sketch_merge;
      test_fleet_small;
      test_parallel_runner;
    ]

(* Direct allocation/throughput record for the two overhauled hot paths,
   written as BENCH_scan.json next to the transcript. The [seed_baseline]
   constants were measured on the pre-overhaul implementation (commit
   fd7c5d8) with the identical workload, so the file is a standing
   before/after record. *)
let scan_report () =
  let ksm = ksm_scan_world () in
  let iters = 100 in
  let pages = float_of_int (iters * 4096) in
  let w0 = Gc.minor_words () in
  (* skulkscope: allow wall-clock — times the simulator itself (host CPU seconds), not simulated work *)
  let t0 = Sys.time () in
  for _ = 1 to iters do
    Memory.Ksm.scan_once ksm
  done;
  (* skulkscope: allow wall-clock — closes the host-clock interval opened above *)
  let scan_s = Sys.time () -. t0 in
  let scan_words = (Gc.minor_words () -. w0) /. pages in
  let scan_ns = scan_s *. 1e9 /. pages in
  let d = dirty_wordscan_world () in
  let dirty_iters = 2000 in
  let dirty_pages = float_of_int (dirty_iters * Memory.Dirty.length d) in
  (* skulkscope: allow wall-clock — times the simulator itself (host CPU seconds), not simulated work *)
  let t1 = Sys.time () in
  let sink = ref 0 in
  for _ = 1 to dirty_iters do
    sink := Memory.Dirty.fold_dirty d (fun acc i -> acc + i) !sink
  done;
  (* skulkscope: allow wall-clock — closes the host-clock interval opened above *)
  let dirty_ns = (Sys.time () -. t1) *. 1e9 /. dirty_pages in
  (* Event-engine record: the heap rows are measured live (Event_heap is
     the pre-overhaul implementation, preserved under bench/event_heap/
     as the reference oracle), so the wheel-vs-heap speedup is an apples-to-apples number
     from the same machine and build. *)
  let q_ops = 1_000_000 in
  let wheel_1e3 = Event_bench.queue_ns_per_op Event_bench.wheel ~pending:1_000 ~ops:q_ops in
  let heap_1e3 = Event_bench.queue_ns_per_op Event_bench.heap ~pending:1_000 ~ops:q_ops in
  let wheel_1e5 = Event_bench.queue_ns_per_op Event_bench.wheel ~pending:100_000 ~ops:q_ops in
  let heap_1e5 = Event_bench.queue_ns_per_op Event_bench.heap ~pending:100_000 ~ops:q_ops in
  let rescan_full = Event_bench.ksm_rescan_ns_per_dirtied_page ~incremental:false ~iters:200 in
  let rescan_incr = Event_bench.ksm_rescan_ns_per_dirtied_page ~incremental:true ~iters:200 in
  (* Quantile-sketch hot paths: streaming insert and the per-series
     merge the --jobs fan-in performs (one persistent aggregate); best
     of 3 runs, like the event queue numbers above. Compact first: the
     sketch paths allocate major-heap float arrays, so leftover live
     data from the bechamel table would otherwise bill its GC slices to
     this section (this section has no seed baseline to stay
     comparable with, unlike the ksm/dirty numbers above). *)
  Gc.compact ();
  let best_of3 f =
    let best = ref (f ()) in
    for _ = 2 to 3 do
      let v = f () in
      if v < !best then best := v
    done;
    !best
  in
  let sk_xs = sketch_samples 65536 in
  let sketch_add_ns =
    best_of3 (fun () ->
        let sk = Sim.Stats.Sketch.create () in
        let passes = 10 in
        (* skulkscope: allow wall-clock — times the simulator itself (host CPU seconds), not simulated work *)
        let t = Sys.time () in
        for _ = 1 to passes do
          Array.iter (Sim.Stats.Sketch.add sk) sk_xs
        done;
        (* skulkscope: allow wall-clock — closes the host-clock interval opened above *)
        (Sys.time () -. t) *. 1e9 /. float_of_int (passes * Array.length sk_xs))
  in
  let sk_src =
    let s = Sim.Stats.Sketch.create () in
    Array.iter (Sim.Stats.Sketch.add s) (sketch_samples 4096);
    s
  in
  let merge_iters = 50_000 in
  let sk_agg = Sim.Stats.Sketch.create () in
  let sketch_merge_ns =
    best_of3 (fun () ->
        (* skulkscope: allow wall-clock — times the simulator itself (host CPU seconds), not simulated work *)
        let t = Sys.time () in
        for _ = 1 to merge_iters do
          Sim.Stats.Sketch.merge_into ~into:sk_agg sk_src
        done;
        (* skulkscope: allow wall-clock — closes the host-clock interval opened above *)
        (Sys.time () -. t) *. 1e9 /. float_of_int merge_iters)
  in
  (* Fleet throughput at datacenter sizes, sharded vs single-shard.
     The sharded runs take jobs = 0 (all cores), so the speedup is the
     machine's real delivery - on a single-core container it documents
     sharding overhead (~1.0x), and "cores" is recorded next to it so
     the number can be read honestly. *)
  let cores = Sim.Parallel.available_cores () in
  let fleet_1k_1 =
    Fleet_bench.measure ~repeats:3 ~hosts:125 ~tenants:7 ~minutes:30. ~shards:1 ~jobs:1 ()
  in
  let fleet_1k_4 =
    Fleet_bench.measure ~repeats:3 ~hosts:125 ~tenants:7 ~minutes:30. ~shards:4 ~jobs:0 ()
  in
  let fleet_10k_1 =
    Fleet_bench.measure ~repeats:2 ~hosts:1250 ~tenants:7 ~minutes:10. ~shards:1 ~jobs:1 ()
  in
  let fleet_10k_4 =
    Fleet_bench.measure ~repeats:2 ~hosts:1250 ~tenants:7 ~minutes:10. ~shards:4 ~jobs:0 ()
  in
  let json =
    Printf.sprintf
      {|{
  "workload": {
    "ksm_scan": "scan_once, 64 spaces x 256 distinct pages (16384 pages), fast config",
    "dirty_fold": "fold_dirty over 65536 pages at 1%% dirty",
    "event_queue": "steady-state schedule+expire pairs at fixed occupancy; replacement deltas drawn from the engine period mix (90%% <=1ms packet-scale, 9%% <=100ms device-scale, 1%% <=10s housekeeping), best of 3 runs",
    "ksm_rescan": "steady-state wakeups over the 16384-page population with ~1%% (164 pages) dirtied between wakeups; cost normalised per dirtied page",
    "sketch": "Stats.Sketch (compression 128): streaming adds of 65536-value cycles; merge_into of a 4096-sample sketch into a persistent aggregate",
    "fleet": "Fleet.World.run, default churn/infection knobs: 125 hosts x 8 VMs for 30 sim-minutes (1k VMs) and 1250 hosts x 8 VMs for 10 sim-minutes (10k VMs); sharded runs use 4 shards with jobs=0 (all cores); best of N"
  },
  "seed_baseline": {
    "ksm_scan_minor_words_per_page": 83.02,
    "ksm_scan_ns_per_page": 543.5,
    "dirty_iter_ns_per_page": 4.21
  },
  "current": {
    "ksm_scan_minor_words_per_page": %.2f,
    "ksm_scan_ns_per_page": %.1f,
    "dirty_iter_ns_per_page": %.2f
  },
  "events_per_sec": {
    "heap_reference_1e3_pending": %.0f,
    "heap_reference_1e5_pending": %.0f,
    "wheel_1e3_pending": %.0f,
    "wheel_1e5_pending": %.0f,
    "wheel_speedup_1e5_pending": %.2f
  },
  "ksm_rescan_ns_per_page": {
    "full_sweep_per_dirtied_page": %.1f,
    "incremental_per_dirtied_page": %.1f,
    "incremental_speedup": %.2f
  },
  "sketch": {
    "add_ns_per_sample": %.1f,
    "merge_ns_per_4096_sample_sketch": %.0f
  },
  "fleet": {
    "cores": %d,
    "vm1k": {
      "vms": %d,
      "events": %d,
      "single_shard_events_per_sec": %.0f,
      "single_shard_ns_per_vm_minute": %.0f,
      "sharded_events_per_sec": %.0f,
      "sharded_ns_per_vm_minute": %.0f,
      "sharded_speedup": %.2f
    },
    "vm10k": {
      "vms": %d,
      "events": %d,
      "single_shard_events_per_sec": %.0f,
      "single_shard_ns_per_vm_minute": %.0f,
      "sharded_events_per_sec": %.0f,
      "sharded_ns_per_vm_minute": %.0f,
      "sharded_speedup": %.2f
    }
  }
}
|}
      scan_words scan_ns dirty_ns (1e9 /. heap_1e3) (1e9 /. heap_1e5) (1e9 /. wheel_1e3)
      (1e9 /. wheel_1e5) (heap_1e5 /. wheel_1e5) rescan_full rescan_incr
      (rescan_full /. rescan_incr) sketch_add_ns sketch_merge_ns cores
      fleet_1k_1.Fleet_bench.m_vms fleet_1k_1.Fleet_bench.m_events
      (Fleet_bench.events_per_sec fleet_1k_1)
      (Fleet_bench.ns_per_vm_minute fleet_1k_1)
      (Fleet_bench.events_per_sec fleet_1k_4)
      (Fleet_bench.ns_per_vm_minute fleet_1k_4)
      (fleet_1k_1.Fleet_bench.m_wall_s /. fleet_1k_4.Fleet_bench.m_wall_s)
      fleet_10k_1.Fleet_bench.m_vms fleet_10k_1.Fleet_bench.m_events
      (Fleet_bench.events_per_sec fleet_10k_1)
      (Fleet_bench.ns_per_vm_minute fleet_10k_1)
      (Fleet_bench.events_per_sec fleet_10k_4)
      (Fleet_bench.ns_per_vm_minute fleet_10k_4)
      (fleet_10k_1.Fleet_bench.m_wall_s /. fleet_10k_4.Fleet_bench.m_wall_s)
  in
  let oc = open_out "BENCH_scan.json" in
  output_string oc json;
  close_out oc;
  Printf.printf
    "\n  hot-path record (BENCH_scan.json): ksm scan %.2f minor words/page (seed: 83.02), \
     %.1f ns/page (seed: 543.5); dirty fold %.2f ns/page (seed: 4.21)\n"
    scan_words scan_ns dirty_ns;
  Printf.printf
    "  event queue at 1e5 pending: wheel %.0f ns/op vs heap %.0f ns/op (%.2fx); ksm rescan \
     %.1f -> %.1f ns/dirtied page (%.2fx)\n"
    wheel_1e5 heap_1e5 (heap_1e5 /. wheel_1e5) rescan_full rescan_incr
    (rescan_full /. rescan_incr);
  Printf.printf "  quantile sketch: add %.1f ns/sample; merge of a 4096-sample sketch %.0f ns\n"
    sketch_add_ns sketch_merge_ns;
  Printf.printf
    "  fleet (on %d core%s): 1k VMs %.2fs -> %.0f events/s; 10k VMs %.2fs -> %.0f events/s; \
     4-shard speedup %.2fx / %.2fx\n"
    cores
    (if cores = 1 then "" else "s")
    fleet_1k_1.Fleet_bench.m_wall_s
    (Fleet_bench.events_per_sec fleet_1k_1)
    fleet_10k_1.Fleet_bench.m_wall_s
    (Fleet_bench.events_per_sec fleet_10k_1)
    (fleet_1k_1.Fleet_bench.m_wall_s /. fleet_1k_4.Fleet_bench.m_wall_s)
    (fleet_10k_1.Fleet_bench.m_wall_s /. fleet_10k_4.Fleet_bench.m_wall_s);
  ignore !sink

let run () =
  Bench_util.section "Bechamel: simulator micro-benchmarks (real wall-clock)";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let sorted =
    Hashtbl.fold
      (fun name ols_result acc ->
        let est =
          match Analyze.OLS.estimates ols_result with
          | Some (e :: _) -> Printf.sprintf "%.0f ns/run" e
          | Some [] | None -> "-"
        in
        let r2 =
          match Analyze.OLS.r_square ols_result with
          | Some r -> Printf.sprintf "%.4f" r
          | None -> "-"
        in
        [ name; est; r2 ] :: acc)
      results []
    |> List.sort (fun a b -> String.compare (List.hd a) (List.hd b))
  in
  Bench_util.table ~header:[ "benchmark"; "estimate"; "r^2" ] ~rows:sorted;
  scan_report ()

let spec =
  Harness.Experiment.make ~id:"bechamel" ~doc:"Bechamel simulator micro-benchmarks"
    (fun _ -> run ())
