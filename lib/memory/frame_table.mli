(** Host physical frames.

    One frame table per physical machine. Each frame holds a page content
    digest and a reference count; KSM raises the count when it merges
    identical pages, and copy-on-write lowers it again when a shared
    frame is written.

    The table is laid out flat: three arrays indexed by frame id and
    doubled together when full - 8 bytes of digest, one [int] refcount
    and one stable-flag byte, 17 bytes per frame. Freed frames go on a
    free stack, an [int array] of frame ids plus a count that doubles
    when full; {!alloc} reuses the most recently freed frame first. No
    frame is a heap block of its own and freeing one conses nothing, so
    neither a content write nor a merge's free allocates on the minor
    heap, and the major GC has no per-frame blocks to mark or sweep. *)

type t

type frame = int
(** Frame identifier. *)

val create : ?capacity_frames:int -> Sim.Ctx.t -> t
(** [capacity_frames] (default unbounded) models the host's physical RAM;
    allocation beyond it raises {!Out_of_memory_frames}. The context's
    telemetry sink registers the memory-layer metrics
    ([memory_cow_breaks_total], dirty drain counters) and is inherited by
    every address space built over this table. *)

val telemetry : t -> Sim.Telemetry.t option
(** The sink passed at creation - the memory layer's instrumentation
    root, consulted by {!Address_space} and {!Dirty}. *)

val note_cow_break : t -> unit
(** Count one copy-on-write break (a write to a shared frame); called by
    {!Address_space.write}. *)

exception Out_of_memory_frames

val alloc : t -> Page.Content.t -> frame
(** Allocate a fresh private frame holding the given content: the most
    recently freed frame if there is one, else a never-used id. *)

val is_live : t -> frame -> bool
(** Whether the frame is currently allocated. Every other accessor
    asserts liveness; callers holding possibly-stale frame ids (KSM's
    stable tree) must check this first. *)

val content : t -> frame -> Page.Content.t
val refcount : t -> frame -> int
val is_shared : t -> frame -> bool
(** [refcount > 1]. *)

val incref : t -> frame -> unit
val decref : t -> frame -> unit
(** Dropping the last reference frees the frame. *)

val write : t -> frame -> Page.Content.t -> unit
(** In-place content update; only legal on a private frame (asserts). A
    shared frame must be CoW-broken first (see {!Address_space.write}). *)

val mark_stable : t -> frame -> unit
(** Flag a frame as living in KSM's stable tree. *)

val is_stable : t -> frame -> bool

val live_frames : t -> int
(** Number of allocated (refcounted > 0) frames. Test hook: tests check
    frame accounting after writes, merges and frees. *)

val shared_frames : t -> int
(** Number of frames with refcount > 1. Test hook: tests check how many
    frames merging left shared. *)

val sharing_savings_pages : t -> int
(** Pages of RAM saved by sharing: sum over shared frames of
    (refcount - 1). The "memory density" KSM buys. *)

val check_invariants : t -> (unit, string) result
(** Structural sanity, checkable at any point: the live counter matches
    the number of referenced slots, capacity is respected, the free stack
    holds only unreferenced in-range frames with no duplicates, no
    refcount is negative, and no freed frame is still flagged stable.
    [Error] describes the first violation. The fuzzer and the qcheck
    suites share this as their frame-table oracle (cf.
    {!Ksm.check_invariants}). *)
