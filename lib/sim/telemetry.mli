(** Labelled metrics registry and span-based timing.

    A sink collects two kinds of observation from the simulated stack:

    - {b metrics} - monotonic counters, gauges, and fixed-bucket
      histograms, keyed by [component_name{label="value",...}] exactly as
      in the Prometheus exposition format;
    - {b spans} - named intervals of {e simulation} time with structured
      [key=value] fields, exported as one JSON object per line.

    The sink rides in the {!Ctx.t} threaded through [lib/] (read it back
    with {!Ctx.telemetry}, a [t option]). Instrument code by
    creating a handle once ({!counter}, {!gauge}, {!histogram}) and
    bumping it on the hot path: a handle created against [None] is a
    physical [None], so the disabled case is a single pattern match with
    no allocation and no hashing - strictly zero-cost.

    Determinism rules (see DESIGN.md "Observability"):
    - only simulation time ({!Time.t}) ever enters the output - never the
      wall clock;
    - recording an observation must not draw from any RNG or advance the
      engine;
    - exporters emit series in sorted order and spans in recording order,
      so equal runs produce byte-equal exports. Per-trial sinks merged
      with {!merge_into} in trial order (see {!Parallel.map_ctx})
      make exports independent of worker count. *)

type t
(** A telemetry sink: a metrics registry plus a bounded span buffer. *)

type labels = (string * string) list
(** Label pairs. Keys are sanitised to [[a-zA-Z_][a-zA-Z0-9_]*] and
    sorted, so label order at the call site does not matter. *)

val create : ?span_capacity:int -> unit -> t
(** [span_capacity] (default 65536) bounds retained spans; the oldest are
    dropped first once exceeded (see {!spans_dropped}). Test hook: only
    test_telemetry's "span capacity drops oldest" sets it, to a ring of
    two. *)

val create_like : t -> t
(** An empty sink with the same configuration - used for per-trial child
    sinks in {!Parallel.map_ctx}. *)

val enabled : t option -> bool

(** {1 Metrics}

    Handles are cheap to create but are meant to be created once per
    instrumented object, not per event. Registering the same
    [component]/[name]/[labels] twice returns a handle to the same
    series; re-registering under a different metric kind raises
    [Invalid_argument]. *)

type counter
type gauge
type histogram
type summary

val counter : t option -> ?labels:labels -> component:string -> string -> counter
(** [counter sink ~component name] registers (or re-opens) the monotonic
    counter [component_name{labels}]. The series exists from registration
    time with value 0, so exports show instrumented-but-idle subsystems. *)

val incr : counter -> unit
val add : counter -> int -> unit
(** Raises [Invalid_argument] on a negative increment. *)

val addf : counter -> float -> unit

val gauge : t option -> ?labels:labels -> component:string -> string -> gauge
val set : gauge -> float -> unit

val histogram :
  t option -> ?labels:labels -> ?buckets:float list -> component:string -> string ->
  histogram
(** [buckets] are the finite upper bounds, strictly ascending (an
    implicit [+Inf] overflow bucket is always added). The default is a
    decade ladder [0.001 .. 1000]; instrumentation sites pass explicit
    bounds matched to their unit. *)

val observe : histogram -> float -> unit

val summary : t option -> component:string -> string -> summary
(** [summary sink ~component name] registers (or re-opens) a quantile
    summary series backed by a {!Stats.Sketch}: storage stays bounded
    however many values are recorded, and sinks merged with
    {!merge_into} combine their sketches in O(centroids). The export
    points are the quantiles 0.5, 0.9 and 0.99; estimates carry the
    sketch's documented rank error. Exported as [name{quantile="q"}]
    lines plus [_sum]/[_count] in Prometheus text, and as one JSON
    object per series after the spans in JSONL. *)

val record : summary -> float -> unit
(** Record one observation into the summary's sketch. *)

(** {1 Spans} *)

val span :
  t option -> component:string -> name:string -> start:Time.t -> stop:Time.t ->
  ?fields:labels -> unit -> unit
(** Record a completed interval of simulation time. [fields] are emitted
    in the given order; values computed from floats must be rendered
    deterministically by the caller (e.g. [Printf.sprintf "%.0f"]). *)

(** {1 Introspection} *)

val series_count : t -> int
(** Test hook: tests check registration and merges without parsing an
    export. *)

val spans_recorded : t -> int
(** Test hook: tests check the span buffer's bound. *)

val spans_dropped : t -> int
(** Test hook: tests check the span buffer's bound. *)

val value : t -> string -> float option
(** [value t key] is the current value of the counter or gauge whose
    rendered series name is [key] (e.g. ["vmm_exits_total{level=\"1\"}"]);
    [None] for histograms or absent series. Test hook: tests read counters
    and gauges without parsing an export. *)

val histogram_count : t -> string -> int option
(** Total observation count of the histogram registered under [key].
    Test hook: tests read histograms without parsing an export. *)

val summary_count : t -> string -> int option
(** Observation count of the summary registered under [key]. Test hook:
    tests read summaries without parsing an export. *)

val summary_quantile : t -> string -> float -> float option
(** [summary_quantile t key q] is the sketch's estimate for [q] in
    [0,1]; [None] for absent or non-summary series, [nan] when the
    summary is empty. Test hook: tests read summaries without parsing an
    export. *)

val fold_series : t -> init:'a -> f:('a -> string -> float -> 'a) -> 'a
(** Fold over every registered series in export (sorted-key) order:
    counters and gauges contribute their current value, histograms their
    total observation count. The order is a pure function of the
    registered names, so folds over equal sinks visit equal sequences -
    what the fuzzer's coverage signatures rely on. *)

(** {1 Merging} *)

val merge_into : into:t -> ?span_fields:labels -> t -> unit
(** [merge_into ~into child] folds [child] into [into]: counters add,
    gauges take the child's value, histograms add bucket-wise (raising
    [Invalid_argument] if bucket bounds differ), summaries merge their
    sketches, and spans are appended in order with [span_fields] appended to each
    span's fields (used to tag spans with their trial index).
    Deterministic given a fixed merge order. *)

(** {1 Exporters} *)

val prometheus_string : t -> string
(** Prometheus text exposition: [# TYPE] comment per metric, series
    sorted by name, histograms expanded to cumulative [_bucket{le=...}]
    plus [_sum]/[_count]. *)

val jsonl_string : t -> string
(** One JSON object per span, in recording order:
    [{"component":...,"name":...,"start_ns":...,"end_ns":...,"fields":{...}}],
    followed by one object per summary series in sorted order:
    [{"summary":...,"count":...,"sum":...,"quantiles":{...}}] (the
    [quantiles] object is empty for an empty summary). *)
