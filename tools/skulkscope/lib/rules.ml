(* The skulkscope rule catalogue. skulkscope loads .cmt files and
   analyses the Typedtree, so every rule sees resolved paths (a
   file-local [compare] is not [Stdlib.compare]) and types (a mutable
   root is anything whose type says so), and the escape and context
   rules follow calls across units (summaries + a call-graph fixpoint).

   Six families (see DESIGN.md §9):

   determinism —
     random-global   stdlib [Random] is process-global, unseeded per
                     trial; all randomness must come from [Sim.Rng].
     wall-clock      [Sys.time]/[Unix.gettimeofday]-style reads leak
                     the host clock into results; sim code uses
                     [Sim.Engine.now]. Bench calibration code allows
                     its uses with a reason.
     hashtbl-order   [Hashtbl.iter]/[fold]/[to_seq]/... observe
                     hash-bucket order. A fold is sanctioned when its
                     result is piped or passed straight into
                     [List.sort]/[sort_uniq]/[stable_sort]/[fast_sort].
     poly-compare    [Stdlib.compare] (bare or qualified), plus
                     [Stdlib.(=)]/[(<>)] against a float literal. Use
                     the typed [Int.compare]/[String.compare]/...

   domain-safety —
     toplevel-mutable a module-level value of mutable type in lib/ is
                     shared across trial domains. [Atomic.t] is the
                     sanctioned escape hatch and is exempt.
     domain-spawn    raw [Domain.spawn]/[Thread.create] outside
                     [Sim.Parallel]: all fan-out goes through the
                     deterministic trial runner.

   domain-escape —
     escape-capture  a closure handed to [Sim.Parallel.map]/[map_seeds]/
                     [map_ctx]/[run_sharded] (including [~seed_of]) or
                     [Domain.spawn]/[Thread.create] captures a value of
                     mutable type (ref, array, bytes, Hashtbl/Queue/
                     Stack/Buffer, a record with mutable fields, or a
                     module-level mutable value) from the spawning
                     scope: every trial domain would share it. State
                     allocated inside the closure (or derived from the
                     child [Ctx]) is per-trial and never fires.
     escape-call     the spawned closure calls a function whose
                     transitively reachable roots include module-level
                     mutable state.

   determinism-taint —
     rng-escape      an RNG stream, engine, or context from the
                     spawning scope is captured by a spawned closure:
                     the draw schedule then depends on domain
                     interleaving.
     rng-order       an RNG is consumed inside a [Hashtbl.iter]/[fold]/
                     [to_seq] callback: the draw order follows
                     hash-bucket order.

   context —
     ctx-discipline  a function in lib/ outside lib/sim/ taking its own
                     [?telemetry] or [?faults] optional: those ride in
                     the [Sim.Ctx] the caller threads down. The
                     singular [?fault] (a migration-local injection
                     point) is deliberately exempt.
     ctx-minted      [Ctx.create] applied in lib/ outside lib/sim/, or
                     a module-level binding of context/engine/RNG type:
                     contexts are minted at entry points and threaded
                     down ([Ctx.fork]/[with_seed] derive from them).
     ctx-launder     a call, from lib/ outside lib/sim/, to a function
                     that transitively mints a context: a helper
                     wrapper does not launder the provenance.

   telemetry —
     counter-name    counters are named [*_total]; gauges, histograms
                     and summaries are not, and histograms and summaries
                     avoid the reserved exporter suffixes [_sum]/
                     [_count]/[_bucket].
     counter-monotonic [Telemetry.add]/[addf] with a negative constant.
     sink-discipline [Telemetry.create] inside lib/ (sinks are created
                     at entry points; per-trial sinks use [create_like])
                     and [merge_into] outside [Sim.Parallel].
     span-pairing    [Telemetry.span] whose [~start] is [~stop]
                     (zero-width) or whose [~start] is a module-level
                     value rather than one bound in the definition
                     (begin/end split across functions). *)

type rule = {
  name : string;
  family : string;
  summary : string;
  applies : string -> bool;
}

let under dir path =
  let n = String.length dir in
  String.length path >= n && String.sub path 0 n = dir

let everywhere _ = true
let lib_only path = under "lib/" path

(* Sim.Parallel is the sanctioned implementation: its worker closures
   share the results array and trial counter by design. *)
let outside_parallel path = path <> "lib/sim/parallel.ml"
let ctx_scope path = lib_only path && not (under "lib/sim/" path)

let catalogue =
  [
    { name = "random-global"; family = "determinism";
      summary = "stdlib Random banned; use Sim.Rng"; applies = everywhere };
    { name = "wall-clock"; family = "determinism";
      summary = "host clock reads banned on sim paths; use Sim.Engine.now"; applies = everywhere };
    { name = "hashtbl-order"; family = "determinism";
      summary = "Hashtbl iteration order escapes unless sorted"; applies = everywhere };
    { name = "poly-compare"; family = "determinism";
      summary = "polymorphic compare / float equality banned"; applies = everywhere };
    { name = "toplevel-mutable"; family = "domain-safety";
      summary = "module-level mutable state in lib/ is shared across trial domains";
      applies = lib_only };
    { name = "domain-spawn"; family = "domain-safety";
      summary = "raw Domain.spawn outside Sim.Parallel"; applies = outside_parallel };
    { name = "escape-capture"; family = "domain-escape";
      summary = "spawned closure captures a mutable root from the spawning scope";
      applies = outside_parallel };
    { name = "escape-call"; family = "domain-escape";
      summary = "spawned closure reaches module-level mutable state through calls";
      applies = outside_parallel };
    { name = "rng-escape"; family = "determinism-taint";
      summary = "RNG/engine/context shared into a spawned closure";
      applies = outside_parallel };
    { name = "rng-order"; family = "determinism-taint";
      summary = "RNG consumed under Hashtbl iteration order"; applies = everywhere };
    { name = "ctx-discipline"; family = "context";
      summary = "substrates take a Sim.Ctx, not their own ?telemetry/?faults optionals";
      applies = ctx_scope };
    { name = "ctx-minted"; family = "context";
      summary = "Ctx minted (or held at module level) in lib/ instead of arriving as a parameter";
      applies = ctx_scope };
    { name = "ctx-launder"; family = "context";
      summary = "call to a wrapper that transitively mints a Ctx"; applies = ctx_scope };
    { name = "counter-name"; family = "telemetry";
      summary =
        "counters end in _total; other kinds do not and avoid reserved exporter suffixes";
      applies = everywhere };
    { name = "counter-monotonic"; family = "telemetry";
      summary = "counters only increment"; applies = everywhere };
    { name = "sink-discipline"; family = "telemetry";
      summary = "sinks created at entry points; merged only by Sim.Parallel";
      applies = everywhere };
    { name = "span-pairing"; family = "telemetry";
      summary = "span start/stop captured and paired per function"; applies = everywhere };
  ]

let find_rule name = List.find_opt (fun r -> String.equal r.name name) catalogue
