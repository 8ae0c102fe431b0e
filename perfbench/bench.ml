(* perfbench: the simulator's end-to-end benchmark.

   One process runs one workload closed-loop: one unit at a time, in
   one domain, unit i at seed + i, until --seconds of wall time have
   passed. Throughput is taken over the whole phase. Every unit's
   simulated outcome is checked outside the timed region.

     bench.exe --workload detect|migrate|fleet --seed N --seconds S
               --trace 0|1 [--setup-only] [--t0 T]

   --trace 0 prints the end-to-end metrics. --trace 1 runs half the
   time untraced, replays the same units with a telemetry sink and
   benchmark spans, times fleet worlds at shards 1 and 4, and prints
   the per-layer metrics. The last line of stdout is one JSON object.
   perfbench/README.md documents the units, seeds and metrics. *)

let clock = Trace.clock

type result = {
  seed : int;
  wall : float;  (** the unit's timed region *)
  out : Units.outcome;
  minor_words : float;
  major_collections : int;
  sink : Sim.Telemetry.t option;
}

let run_unit (w : Units.t) ?tracer ~traced seed =
  let sink = if traced then Some (Sim.Telemetry.create ()) else None in
  let ctx = Sim.Ctx.create ~seed ?telemetry:sink () in
  Option.iter (fun t -> t.Trace.unit_seed <- seed) tracer;
  let g0 = Gc.quick_stat () in
  let t0 = clock () in
  let inspect =
    try Ok (Trace.call tracer "bench.unit" (fun () -> w.Units.run tracer ctx)) with e -> Error e
  in
  let wall = clock () -. t0 in
  let g1 = Gc.quick_stat () in
  let raised e =
    { Units.sim_s = 0.; events = 0; digest = "raised"; failure = Some (Printexc.to_string e) }
  in
  let out = match inspect with Ok f -> (try f () with e -> raised e) | Error e -> raised e in
  {
    seed;
    wall;
    out;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    sink;
  }

(* The digest covers the first two units, which every run completes. *)
let min_units = 2

let warmup_seed = 0

(* Units seed, seed + 1, ... until [seconds] of wall time have passed.
   The untimed Gc.compact before each unit starts every unit from the
   same heap, instead of paying for its predecessor's garbage. *)
let phase w ~seed ~seconds =
  let start = clock () in
  let rec go i acc =
    if i >= min_units && clock () -. start >= seconds then List.rev acc
    else begin
      Gc.compact ();
      go (i + 1) (run_unit w ~traced:false (seed + i) :: acc)
    end
  in
  go 0 []

let sumf f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let ratio a b = if b = 0. then 0. else a /. b
let failed units = List.length (List.filter (fun r -> Option.is_some r.out.Units.failure) units)

let print_units tag units =
  List.iter
    (fun r ->
      Printf.printf "%s unit %d wall_s %.4f sim_s %.3f %s %s\n" tag r.seed r.wall r.out.Units.sim_s
        r.out.Units.digest
        (match r.out.Units.failure with None -> "ok" | Some f -> "FAIL: " ^ f))
    units

let digest units =
  List.filteri (fun i _ -> i < min_units) units
  |> List.map (fun r -> r.out.Units.digest)
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let print_json ~correct ~attempted ~failed metrics =
  let value v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (value v) unit)
          metrics))

(* Sum of every series of one counter, across its labels. *)
let counter sink base =
  Sim.Telemetry.fold_series sink ~init:0. ~f:(fun acc key v ->
      let name = match String.index_opt key '{' with Some i -> String.sub key 0 i | None -> key in
      if String.equal name base then acc +. v else acc)

let counters units base =
  sumf (fun r -> match r.sink with Some s -> counter s base | None -> 0.) units

(* Shard-runner evidence: fleet worlds at seed on one domain, in the
   order shards 1, 4, 4, 1, each behind a Gc.compact fence, so neither
   count always runs first. Each figure is the mean of its two worlds.
   Returns the metrics and whether all four renders agree. *)
let shard_evidence ~seed =
  let one shards =
    Gc.compact ();
    let tr = Trace.create () in
    let ctx = Sim.Ctx.create ~seed () in
    let hosts = Units.run_sharded (Some tr) ~shards ctx Units.fleet_spec in
    let render = Fleet.World.render (Units.world_result Units.fleet_spec hosts) in
    let spans = Trace.spans tr in
    let self = Trace.self_time spans in
    let sum f name =
      sumf (fun s -> if String.equal s.Trace.name name then f s else 0.) spans
    in
    ( sum (fun s -> s.Trace.busy) "sim.run_sharded",
      sum self "sim.run_sharded",
      sum (fun s -> s.Trace.busy) "fleet.host_step",
      Digest.string render )
  in
  let a1 = one 1 in
  let a4 = one 4 in
  let b4 = one 4 in
  let b1 = one 1 in
  let mean (w, b, s, _) (w', b', s', _) = ((w +. w') /. 2., (b +. b') /. 2., (s +. s') /. 2.) in
  let wall1, barrier1, step1 = mean a1 b1 and wall4, barrier4, step4 = mean a4 b4 in
  let render (_, _, _, r) = r in
  let agree = List.for_all (fun x -> Digest.equal (render a1) (render x)) [ a4; b4; b1 ] in
  Printf.printf
    "shards (mean of 2 worlds): 1 -> wall %.4f s barrier %.4f s step %.4f s; 4 -> wall %.4f s barrier %.4f s step %.4f s; renders %s\n"
    wall1 barrier1 step1 wall4 barrier4 step4
    (if agree then "agree" else "DIFFER");
  ( [
      ("shards1.barrier_s", "s", barrier1);
      ("shards1.host_step_s", "s", step1);
      ("shards4.barrier_s", "s", barrier4);
      ("shards4.host_step_s", "s", step4);
      ("shards4.speedup", "ratio", ratio wall1 wall4);
    ],
    agree )

(* The traced run: the untraced phase's units replayed with a sink and
   spans; per-layer metrics are means per unit. The spans are written to
   perfbench/out/spans-<workload>-seed<N>.jsonl. *)
let spans_dir = Filename.concat "perfbench" "out"

(* The least share of a unit's wall its timed layer calls must cover. *)
let min_coverage = 0.9

let traced_run (w : Units.t) ~warm_ok ~seed ~seconds =
  let untraced = phase w ~seed ~seconds:(seconds /. 2.) in
  let tracer = Trace.create () in
  let origin = clock () in
  let traced =
    List.map
      (fun r ->
        Gc.compact ();
        run_unit w ~tracer ~traced:true r.seed)
      untraced
  in
  let top_heap_mb =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.
  in
  print_units "untraced" untraced;
  print_units "traced" traced;
  let same =
    List.for_all2 (fun a b -> String.equal a.out.Units.digest b.out.Units.digest) untraced traced
  in
  Printf.printf "digest %s untraced, %s traced (%s)\n" (digest untraced) (digest traced)
    (if same then "identical" else "DIFFER");
  let spans = Trace.spans tracer in
  if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
  Trace.write_jsonl
    (Filename.concat spans_dir (Printf.sprintf "spans-%s-seed%d.jsonl" w.Units.name seed))
    ~origin spans;
  let n = float_of_int (List.length traced) in
  let self = Trace.self_time spans in
  let busy name = sumf (fun s -> if String.equal s.Trace.name name then s.Trace.busy else 0.) spans in
  let layers = List.sort_uniq String.compare (List.map Trace.layer spans) in
  List.iter
    (fun l ->
      Printf.printf "self %-10s %.4f s/unit\n" l
        (sumf (fun s -> if String.equal (Trace.layer s) l then self s else 0.) spans /. n))
    layers;
  let coverage =
    List.fold_left
      (fun acc s ->
        if s.Trace.parent = 0 then Float.min acc (ratio (s.Trace.busy -. self s) s.Trace.busy)
        else acc)
      1. spans
  in
  let c = counters traced in
  let events = sumf (fun r -> float_of_int r.out.Units.events) untraced in
  let migrations = c "migration_outcomes_total" in
  let guest_pages = float_of_int (Memory.Page.pages_of_bytes (w.Units.guest_mb * 1048576)) in
  let evidence, agree = shard_evidence ~seed in
  let per_unit name unit x = (name, unit, x /. n) in
  let metrics =
    [
      per_unit "cloudskulk.scenario_s" "s" (busy "cloudskulk.scenario");
      per_unit "cloudskulk.install_s" "s" (busy "cloudskulk.install");
      per_unit "cloudskulk.protocol_s" "s" (busy "cloudskulk.protocol");
      per_unit "vmm.topology_s" "s" (busy "vmm.topology");
      per_unit "workload.warmup_s" "s" (busy "workload.warmup");
      per_unit "migration.precopy_s" "s" (busy "migration.precopy");
      per_unit "fleet.host_create_s" "s" (busy "fleet.host_create");
      per_unit "fleet.host_step_s" "s" (busy "fleet.host_step");
      per_unit "fleet.deliver_s" "s" (busy "fleet.deliver");
      per_unit "sim.barrier_s" "s"
        (sumf (fun s -> if String.equal s.Trace.name "sim.run_sharded" then self s else 0.) spans);
      per_unit "unit.wall_s" "s" (sumf (fun r -> r.wall) untraced);
      per_unit "sim.events" "count" events;
      ("sim.ns_per_event", "ns", 1e9 *. ratio (sumf (fun r -> r.wall) untraced) events);
      per_unit "ksm.pages_scanned" "count" (c "ksm_pages_scanned_total");
      per_unit "ksm.pages_merged" "count" (c "ksm_pages_merged_total");
      ("ksm.merge_ratio", "ratio", ratio (c "ksm_pages_merged_total") (c "ksm_pages_scanned_total"));
      per_unit "memory.cow_breaks" "count" (c "memory_cow_breaks_total");
      per_unit "memory.dirty_pages_drained" "count" (c "memory_dirty_pages_drained_total");
      per_unit "migration.rounds" "count" (c "migration_rounds_total");
      per_unit "migration.pages_sent" "count" (c "migration_pages_sent_total");
      ( "migration.resend_ratio",
        "ratio",
        ratio (c "migration_pages_sent_total") (migrations *. guest_pages) );
      per_unit "sim.shard_epochs" "count" (c "sim_shard_epochs_total");
      per_unit "sim.shard_messages" "count" (c "sim_shard_messages_total");
      per_unit "detector.probes" "count" (c "cloudskulk_verdicts_total");
      per_unit "net.packets_delivered" "count" (c "net_packets_delivered_total");
      per_unit "gc.minor_mwords" "Mwords" (sumf (fun r -> r.minor_words /. 1e6) untraced);
      per_unit "gc.major_collections" "count"
        (sumf (fun r -> float_of_int r.major_collections) untraced);
      ("gc.top_heap_mb", "MB", top_heap_mb);
      ("trace.overhead", "ratio", ratio (sumf (fun r -> r.wall) traced) (sumf (fun r -> r.wall) untraced));
      ("trace.coverage", "ratio", coverage);
    ]
    @ evidence
  in
  List.iter (fun (name, unit, v) -> Printf.printf "%-28s %14.6g %s\n" name v unit) metrics;
  let all = untraced @ traced in
  let bad = failed all in
  Printf.printf "fail_ratio %d/%d\n" bad (List.length all);
  let covered = coverage >= min_coverage in
  if not covered then Printf.printf "trace.coverage %.4f is below %.2f\n" coverage min_coverage;
  print_json
    ~correct:(warm_ok && bad = 0 && same && agree && covered)
    ~attempted:(List.length all) ~failed:bad metrics

let untraced_run (w : Units.t) ~warm_ok ~seed ~seconds ~setup_s =
  let units = phase w ~seed ~seconds in
  print_units "untraced" units;
  Printf.printf "digest %s\n" (digest units);
  let sim = sumf (fun r -> r.out.Units.sim_s) units and wall = sumf (fun r -> r.wall) units in
  let metrics =
    [
      ("sim_s_per_wall_s", "1/s", ratio sim wall);
      ("setup_s", "s", setup_s);
      ("peak_rss_mb", "MB", peak_rss_mb ());
    ]
  in
  List.iter (fun (name, unit, v) -> Printf.printf "%-18s %14.6g %s\n" name v unit) metrics;
  let bad = failed units in
  Printf.printf "fail_ratio %d/%d\n" bad (List.length units);
  print_json ~correct:(warm_ok && bad = 0) ~attempted:(List.length units) ~failed:bad metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let setup_only = ref false and t0 = ref nan in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME detect, migrate or fleet");
      ("--seed", Arg.Set_int seed, "N first unit's seed");
      ("--seconds", Arg.Set_float seconds, "S measured phase length");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--setup-only", Arg.Set setup_only, " set up, report setup_s, exit");
      ("--t0", Arg.Set_float t0, "T wall-clock time the process was spawned");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let started = if Float.is_nan !t0 then clock () else !t0 in
  let w =
    match List.find_opt (fun w -> String.equal w.Units.name !workload) Units.all with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  in
  (* Set-up: the inputs are the unit seeds; one warm-up unit fills the
     heap before timing starts. Its seed is fixed, so set-up does the
     same work whatever --seed is (a migrate unit's work varies by 30 %
     from seed to seed). *)
  let warm = run_unit w ~traced:false warmup_seed in
  let setup_s = clock () -. started in
  let warm_ok = Option.is_none warm.out.Units.failure in
  if not warm_ok then print_units "warm-up" [ warm ];
  if !setup_only then Printf.printf "{\"setup_s\": %.17g, \"correct\": %b}\n" setup_s warm_ok
  else if !trace = 1 then
    traced_run w ~warm_ok ~seed:!seed ~seconds:!seconds
  else untraced_run w ~warm_ok ~seed:!seed ~seconds:!seconds ~setup_s
