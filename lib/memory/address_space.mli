(** Guest-physical address spaces.

    A root space owns a run of frames in a host {!Frame_table} - the RAM
    of a VM launched on the bare host, or a buffer in the host's own
    memory (e.g. the detector's copy of File-A). A window is a carved-out
    view of a parent space: the RAM of a *nested* VM is a window into its
    parent hypervisor's RAM. Writes through a window resolve to the same
    physical frames the parent sees, which is why L0's KSM can merge
    pages that logically belong to L2 - the property the CloudSkulk
    detector exploits.

    Windows never move, so a window is resolved to its root once, at
    creation: every space holds the root's frame array and the root
    index of its own page 0. A read or write through any nesting depth
    is one bounds-checked array access - no chain walk, no allocation. *)

type t

val create_root : Frame_table.t -> name:string -> pages:int -> t
(** Fresh RAM: every page holds {!Page.Content.zero}, each in a private
    frame. *)

val window : t -> name:string -> offset:int -> pages:int -> t
(** [window parent ~offset ~pages] views pages
    [offset .. offset+pages-1] of [parent]. Raises [Invalid_argument] if
    the range does not fit. *)

val name : t -> string
val pages : t -> int
val is_root : t -> bool

val resolve : t -> int -> t * int
(** [resolve t i] is the root space and root-space index that page [i]
    delegates to. [resolve] of a root space is the identity. Test hook:
    tests check where a window's pages land in the root space. *)

val frame_at : t -> int -> Frame_table.frame
val read : t -> int -> Page.Content.t

type write_kind = Private_write | Cow_break
(** Whether a write went to a private frame or had to break a merged
    (shared) frame. The timing difference between the two is the
    detector's measurement channel. *)

val write : t -> int -> Page.Content.t -> write_kind
(** Write content into a page. Breaks sharing if needed, and marks the
    page dirty in this space and every ancestor space along the
    delegation chain (each at its own local index). *)

val mutate : t -> int -> salt:int -> write_kind
(** [mutate t i ~salt] is [write t i (Page.Content.mutate (read t i) ~salt)]
    - a guest rewriting one page - with the content kept unboxed from
    load to store. *)

val copy : src:t -> int -> dst:t -> int -> write_kind
(** [copy ~src i ~dst j] is [write dst j (read src i)] - one page of a
    migration stream or a mirror - with the content kept unboxed from
    load to store. *)

val remap : t -> int -> Frame_table.frame -> unit
(** [remap t i f] makes page [i] refer to existing frame [f] (used by KSM
    when merging): increfs [f], decrefs the old frame. Only valid on a
    root space. Does not mark the page dirty: Linux KSM merges preserve
    content, and the migration dirty log only tracks content changes. *)

val dirty : t -> Dirty.t
(** This space's dirty bitmap (local indices). *)

val watch_writes : t -> Dirty.t -> unit
(** [watch_writes t d] registers [d] (length [pages t]) as an extra
    write-observer bitmap: every subsequent write to [t] - direct or
    delegated through a window - also sets the corresponding bit of [d].
    The observer owns its own clear schedule, so consumers with
    different cadences (migration rounds, KSM rescans) do not steal each
    other's dirt. Registering the same bitmap twice is a no-op. Raises
    [Invalid_argument] on a length mismatch. *)

val unwatch_writes : t -> Dirty.t -> unit
(** Remove a previously registered write observer (no-op if absent). *)

val load : t -> offset:int -> Page.Content.t array -> unit
(** Bulk write of consecutive page contents starting at [offset]
    (e.g. loading File-A into memory). *)

val contents : t -> Page.Content.t array
(** Snapshot of all page contents (by local index). Test hook: tests compare
    whole spaces with it, for example across a migration. *)

val shared_page_count : t -> int
(** Pages of this space currently backed by a shared frame. *)

val check_invariants : t -> (unit, string) result
(** Structural sanity, checkable at any point: the dirty bitmap and
    every registered write-observer bitmap cover exactly this space's
    pages, every page resolves to a live frame, and (root spaces) no
    frame is mapped more times than its table refcount allows. [Error]
    describes the first violation; shared by the fuzzer and the qcheck
    suites as the address-space oracle (cf. {!Ksm.check_invariants}). *)
