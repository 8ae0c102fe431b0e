(** Sample statistics.

    Used by every benchmark harness to summarise repeated runs the way the
    paper reports them: mean, standard deviation, and relative standard
    deviation (the error bars in Figs 2-4). Accumulators keep exact
    samples up to a cap and spill into a mergeable quantile sketch past
    it, so streaming consumers (telemetry summaries, the fleet's and the
    [slo] experiment's time-to-detect samples) stay allocation-bounded. *)

module Sketch : sig
  (** Mergeable quantile sketch: a merging t-digest with the uniform
      (k0) scale function. Storage is bounded by the compression
      parameter ([2 * compression + 2] centroids plus a fixed insert
      buffer), inserts are amortised O(1), and quantile estimates stay
      within a rank error of roughly [count / compression]
      (conservatively [2 * count / compression + 2] at interpolation
      boundaries — the bound the property tests assert). Only rational
      arithmetic is used, so results are bit-stable across libm
      implementations; estimates are a deterministic function of the
      insertion/merge sequence. *)

  type t

  val create : unit -> t
  (** A sketch at compression 128. *)

  val add : t -> float -> unit

  val merge_into : into:t -> t -> unit
  (** Fold [src]'s centroids into [into] in a single O(centroids)
      merge-compress pass. [src] is still usable afterwards (its
      pending insert buffer is flushed as a side effect). Equivalent,
      up to the documented rank error, to having added both sketches'
      samples into one. *)

  val quantile : t -> float -> float
  (** [quantile t q] for [q] in [0,1] (clamped); [nan] when empty.
      Exact at the extremes (tracked min/max). May flush the insert
      buffer as a side effect. *)

  val count : t -> int
  val sum : t -> float
  val min : t -> float
  (** Test hook: tests check that quantile 0 is exact. *)

  val max : t -> float
  (** Test hook: tests check that quantile 1 is exact. *)

  val centroids : t -> int
  (** Live centroid count after flushing the insert buffer. Test hook: tests
      check that storage stays bounded and merges agree. *)

  val copy : t -> t
end

type t
(** A mutable accumulator of float samples. *)

val create : ?sample_cap:int -> unit -> t
(** [create ()] retains samples exactly up to [sample_cap] (default
    1024, far above any per-accumulator sample count in the experiment
    suite, so existing consumers keep exact percentiles); past the cap the accumulator spills into a
    {!Sketch} and percentiles become sketch estimates. [sample_cap = 0]
    sketches from the first sample. Mean/stddev/min/max/sum stay exact
    regardless. *)

val add : t -> float -> unit
val add_time : t -> Time.t -> unit
(** [add_time t d] records [d] in nanoseconds. *)

val count : t -> int
val mean : t -> float
(** Mean of the samples; [nan] if empty. Test hook: production reads it
    through {!summary}; tests check it directly. *)

val stddev : t -> float
(** Square root of the unbiased sample variance; [0.] with fewer than
    two samples. Test hook: production reads it through {!summary}; tests
    check it directly. *)

val rsd : t -> float
(** Relative standard deviation as a fraction of the mean (multiply by 100
    for percent); [0.] if the mean is zero or fewer than two samples.
    Test hook: production reads it through {!summary}; tests check it
    directly. *)

val min : t -> float
(** Test hook: production reads it through {!summary}; tests check it
    directly. *)

val max : t -> float
(** Test hook: production reads it through {!summary}; tests check it
    directly. *)

val sum : t -> float
(** Test hook: tests check that it stays exact past the sample cap. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [0,100]: linear interpolation over the
    sorted samples below the cap, a {!Sketch} estimate above it; [nan]
    if empty. *)

val samples : t -> float list
(** Samples in insertion order; [[]] once the accumulator has spilled
    into its sketch (see {!is_sketched}). Test hook: tests check the
    retained samples and the spill into the sketch. *)

val is_sketched : t -> bool
(** True once the sample cap has been exceeded and percentiles are
    sketch estimates. *)

val of_list : float list -> t

val merge_into : into:t -> t -> unit
(** Fold [src] into [into]: moments combine exactly (Chan et al.
    pairwise update); samples concatenate in (into, src) order while
    both sides are exact and the result fits the cap, otherwise the
    merge goes through the sketches in O(centroids). [src] is not
    modified apart from a possible sketch-buffer flush. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  rsd : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val summary : t -> summary
(** Snapshot of the accumulator, including interpolated p50/p95/p99 (all
    [nan] when empty, like [mean]). *)

val percent_change : from_:float -> to_:float -> float
(** [percent_change ~from_ ~to_] is [(to_ - from_) / from_ * 100.], the
    "+X%%" labels on the paper's figures. *)
