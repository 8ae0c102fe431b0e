open Cmdliner

let only =
  let doc = "Run a single experiment (e.g. fig4, table2, abl-pages)." in
  Arg.(value & opt (some string) None & info [ "only" ] ~docv:"ID" ~doc)

let trials =
  let doc = "Repetitions per data point (the paper uses 5)." in
  Arg.(value & opt int 5 & info [ "trials"; "runs" ] ~docv:"N" ~doc)

let jobs =
  let doc =
    "Worker domains for experiments with independent trials (detect, fig4, abl-sync, \
     abl-density). 1 = sequential; 0 = all available cores. Output is byte-identical \
     whatever the value: trials are seeded independently and results are rendered in \
     trial order."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let shards =
  let doc =
    "Engine partitions for sharded-world experiments (fleet). Each shard owns a \
     contiguous block of hosts and runs them in lockstep epochs; cross-shard traffic \
     moves through deterministic mailboxes, so output is byte-identical whatever the \
     value. Experiments built on per-trial parallelism ignore it."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)

let seed =
  let doc =
    "Root seed for the experiment context. Defaults to each experiment's published seed, \
     so output matches the paper tables; set it to explore other deterministic universes."
  in
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)

let seed_default default =
  let doc = "Seed for the deterministic simulation." in
  Arg.(value & opt int default & info [ "seed" ] ~docv:"SEED" ~doc)

let faults =
  let doc =
    "Channel fault profile injected into migrations (experiments that honour it: detect). \
     One of none, lossy, degraded, flaky. Fault schedules are seeded per trial, so output \
     is still byte-identical across --jobs levels; 'none' reproduces the fault-free runs \
     exactly."
  in
  Arg.(value & opt string "none" & info [ "faults" ] ~docv:"PROFILE" ~doc)

let metrics_out =
  let doc =
    "Write Prometheus-style telemetry (counters, gauges, histograms from every simulated \
     layer) to $(docv) (\"-\" for stdout) when the run finishes. Off by default: without \
     this flag (and --trace-out) no telemetry is collected and output is byte-identical \
     to an uninstrumented build."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let trace_out =
  let doc =
    "Write the JSONL span trace (sim-time intervals with structured fields) to $(docv) \
     (\"-\" for stdout)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let list_only =
  let doc = "List experiment ids and exit." in
  Arg.(value & flag & info [ "list" ] ~doc)

let write_out path contents =
  match path with
  | "-" -> print_string contents
  | path ->
    let oc = open_out path in
    output_string oc contents;
    close_out oc

let sink ~metrics_out ~trace_out =
  (* skulkscope: allow sink-discipline — the harness IS the entry point; the sink made here is the root one threaded down via Sim.Ctx *)
  if metrics_out <> None || trace_out <> None then Some (Sim.Telemetry.create ()) else None

let export ~metrics_out ~trace_out = function
  | None -> ()
  | Some t ->
    Option.iter (fun p -> write_out p (Sim.Telemetry.prometheus_string t)) metrics_out;
    Option.iter (fun p -> write_out p (Sim.Telemetry.jsonl_string t)) trace_out
