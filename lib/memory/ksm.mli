(** Kernel samepage merging (ksmd).

    A simulation of Linux's KSM daemon: a periodic scanner that walks the
    pages of registered (madvise-MERGEABLE) address spaces and merges
    pages with identical content into a single copy-on-write-protected
    frame. Follows the real ksmd structure: a {e stable tree} of already
    merged frames, an {e unstable tree} of candidate pages that is
    rebuilt on every full pass, a per-page {e checksum} that keeps
    volatile (churning) pages out of the unstable tree, and the
    [pages_to_scan] / [sleep_millisecs] pacing knobs from
    [/sys/kernel/mm/ksm]. The scan hot path is allocation-free.

    Each registered space carries two bitmaps over its pages: a
    {e rescan} set, which a write observer marks on every write (and
    which holds every page not yet visited), and a {e settled} set, bit
    [i] of which the last visit of page [i] set when it left the page on
    a stable frame - found there or merged into one - and cleared
    otherwise. A page that is settled and not in the rescan set would be
    a no-op visit: only a write moves a page off its frame, and a frame
    stays stable while anything references it. The full sweep therefore
    steps over each run of such pages with one bitmap test per 32 pages
    ({!Dirty.run_set_clean}), capped by the wakeup's remaining budget
    and the end of the space, and counts them as scanned pages and
    reused checksums; it visits every other page one at a time. Merges,
    CoW breaks, counters, pass times and the cursor come out exactly as
    page-by-page visits would leave them. *)

type config = {
  pages_to_scan : int;  (** pages examined per wakeup (Linux default 100) *)
  sleep : Sim.Time.t;  (** pause between wakeups (Linux default 20 ms) *)
  incremental : bool;
      (** when set, a wakeup only visits pages written since their last
          scan (plus never-scanned pages) and skips a space with nothing
          dirty on its dirty count, so an idle wakeup costs O(spaces)
          and a steady-state one grows with the dirtied pages, not the
          table; the unstable tree is kept across passes and
          re-validated on hit instead of being rebuilt.
          Merge outcomes converge to the same sharing as full sweeps, but
          pass pacing differs - experiments that count passes or scanned
          pages keep the (default) full sweep. *)
}

val default_config : config
val fast_config : config
(** An aggressive setting (4096 pages / 1 ms) used by experiments whose
    subject is not KSM pacing itself. *)

type t

val create : ?config:config -> Sim.Ctx.t -> Frame_table.t -> t
(** The daemon runs on the context's engine, emits into its trace, and
    registers its metric series ([ksm_scan_passes_total],
    [ksm_pages_scanned_total], [ksm_pages_merged_total],
    [ksm_pages_volatile_skipped_total]) against its sink; handles are
    pre-created here so the scan hot path never touches the registry. *)

val register : t -> Address_space.t -> unit
(** Offer a root address space for merging. Raises [Invalid_argument] on
    a window: nested spaces are scanned through their root ancestor.
    Amortized O(1); scanning order is registration order. *)

val unregister : t -> Address_space.t -> unit
(** Withdraw a space. The scan cursor steps over the removed space but
    keeps its position in the current pass, and unstable-tree candidates
    recorded from other spaces this pass are preserved. *)

val start : t -> unit
(** Begin periodic scanning on the engine's clock. Idempotent. *)

val stop : t -> unit
(** Test hook: tests stop ksmd to freeze merging; every experiment runs it
    to the end. *)

val scan_once : t -> unit
(** Immediately examine the next [pages_to_scan] pages (a single wakeup's
    work), without touching the schedule. Useful in unit tests. *)

val full_scans : t -> int
(** Completed full passes over all registered pages. *)

val pages_merged : t -> int
(** Merge operations performed since creation. *)

val pages_volatile_skipped : t -> int
(** Scans that skipped the unstable tree because the page's content had
    changed since its previous scan (the checksum gate; cf. Linux's
    [pages_volatile]). Test hook: tests check the checksum gate with it. *)

val pages_rescan_avoided : t -> int
(** Page examinations that reused the cached checksum because no write
    was observed since the page's previous scan - the read + hash was
    skipped; pages the full sweep steps over in bulk count here too.
    Applies in both full and incremental modes; behaviour is unchanged,
    only cost.
Test hook: tests check the checksum cache with it. *)

val pages_shared : t -> int
(** Stable-tree frames currently live (Linux's [pages_shared]). *)

val pages_sharing : t -> int
(** Extra page references saved by sharing (Linux's [pages_sharing]). *)

val unstable_candidates : t -> int
(** Current unstable-tree candidates: entries whose (space, page) still
    exists and still hashes to the entry's key. Stale entries (drifted
    slots, rewritten pages) are excluded, mirroring the re-validation
    the scan applies on every hit. *)

val check_invariants : t -> (unit, string) result
(** Structural sanity of the daemon's state, checkable at any point
    between scans: no page is current in both trees, still-valid
    stable-tree entries are flagged stable, every page that is settled
    and not in the rescan set sits on a live stable frame under a cached
    checksum equal to its content's hash (what makes the full sweep's
    bulk step exact), and the sharing counters are
    consistent ([pages_sharing <= pages_merged],
    [pages_shared <=] stable-table size). [Error] describes the first
    violation; the property suites call this after every random
    operation. *)

val time_for_full_pass : t -> Sim.Time.t
(** Lower bound on the virtual time one full pass takes with the current
    configuration and registered population - what a detector must wait
    before trusting merge state. *)
