(** Dirty-page bitmap.

    Live migration tracks which guest pages were written since the last
    pre-copy round. The bitmap is stored 32 pages to a word and iterated
    word-at-a-time, so walking a mostly-clean bitmap costs one compare
    per 32 pages; migration rounds move the dirty set with {!drain} and
    walk it with {!fold_dirty}, neither of which allocates. *)

type t

val create : int -> t
(** [create n] is a clean bitmap over [n] pages, with no telemetry -
    the right constructor for scratch bitmaps (the [into] side of a
    drain). *)

val for_table : Frame_table.t -> int -> t
(** [for_table table n] is {!create} inheriting [table]'s telemetry
    sink: every {!drain} of this bitmap bumps
    [memory_dirty_drains_total] and [memory_dirty_pages_drained_total].
    Address spaces use this so their live bitmaps are instrumented. *)

val length : t -> int
val set : t -> int -> unit
val is_dirty : t -> int -> bool

val test_and_clear : t -> int -> bool
(** [test_and_clear t i] is [is_dirty t i], clearing the bit as a side
    effect - the one-page analogue of {!drain}, used by consumers that
    retire dirt page by page (e.g. an incremental KSM rescan). *)

val next_dirty_from : t -> int -> int option
(** [next_dirty_from t i] is the smallest dirty index [>= i], skipping
    clean ranges a word (32 pages) per compare; a bitmap with nothing
    dirty answers [None] in O(1). [None] if no bit at or after [i] is
    set; the bitmap is not modified. *)

val run_set_clean : t -> unless:t -> int -> limit:int -> int
(** [run_set_clean t ~unless i ~limit] is the length of the run of
    indices from [i] whose bit is set in [t] and clear in [unless], at
    most [limit] and never past the end: [0] when [i] itself breaks the
    run. It tests a word (32 pages) per compare and modifies neither
    bitmap - KSM's full sweep steps over its settled-and-unwritten pages
    with it. Raises [Invalid_argument] on a length mismatch or an [i]
    outside [[0, length)] (when [limit > 0]). *)

val dirty_count : t -> int
val clear : t -> unit

val drain : t -> into:t -> unit
(** [drain t ~into] moves [t]'s dirty set into [into] (whose previous
    contents are discarded) and clears [t] - the atomic
    collect-and-clear a pre-copy round needs, without building a list.
    Raises [Invalid_argument] on a length mismatch. *)

val fold_dirty : t -> ('a -> int -> 'a) -> 'a -> 'a
(** [fold_dirty t f init] folds [f] over the dirty indices in increasing
    order. Allocation-free apart from what [f] does. *)

val collect_and_clear : t -> int list
(** Indices that were dirty, in increasing order; the bitmap is clean
    afterwards. Allocates the list: hot paths should prefer
    {!drain} + {!fold_dirty}. Test hook: tests read the bitmap with it. *)
