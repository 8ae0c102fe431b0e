type config = {
  pages_to_scan : int;
  sleep : Sim.Time.t;
  incremental : bool;
}

let default_config = { pages_to_scan = 100; sleep = Sim.Time.ms 20.; incremental = false }
let fast_config = { pages_to_scan = 4096; sleep = Sim.Time.ms 1.; incremental = false }

(* Both trees are keyed by the page's integer content hash - computed
   once per scan and reused - rather than the boxed content itself.
   Every hit is re-validated by full content equality before it is acted
   on, so a hash collision can only cost a missed merge opportunity,
   never a wrong one. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash h = h
end)

(* One registered space plus its per-page checksum memory. [checksums.(i)]
   is the content hash seen at the previous scan of page [i], or
   [never_scanned]: like real ksmd's rmap_item checksum, it gates
   unstable-tree insertion so pages that churn between passes stop
   thrashing the tree. Content hashes are non-negative (top bits of the
   digest), so -1 cannot collide. *)
type slot = {
  space : Address_space.t;
  checksums : int array;
  (* write-observer bitmap: bit [i] set means page [i] was written (or
     never examined) since the scanner last visited it. The full sweep
     uses it to reuse cached checksums on clean pages; the incremental
     sweep additionally uses it to pick which pages to visit at all. *)
  rescan : Dirty.t;
  (* bit [i] set means the last visit left page [i] on a stable frame.
     Only a write moves a page off its frame (KSM remaps only the page it
     is visiting, and a frame stays stable while referenced), and every
     write sets the page's [rescan] bit: so a page settled here and clean
     in [rescan] would be a no-op visit, and the full sweep steps over
     runs of them a word at a time. *)
  settled : Dirty.t;
}

let never_scanned = -1

type t = {
  engine : Sim.Engine.t;
  table : Frame_table.t;
  config : config;
  trace : Sim.Trace.t;
  (* registration-ordered slots, [slots.(0 .. n_slots - 1)]; kept as a
     doubling array so [register] is amortized O(1) and the scan cursor
     indexes it without rebuilding anything per page *)
  mutable slots : slot array;
  mutable n_slots : int;
  stable : Frame_table.frame Int_tbl.t;
  (* unstable values pack (slot index, page index) into one immediate
     int, so a pass's candidate insertions never allocate a block beyond
     the hashtable bucket itself. Slot indices can drift when a space is
     unregistered mid-pass; entries are re-validated by content on every
     hit, which makes the drift harmless. *)
  unstable : int Int_tbl.t;
  mutable cursor_space : int;  (* index into [slots] *)
  mutable cursor_page : int;
  mutable full_scans : int;
  mutable merges : int;
  mutable volatile_skips : int;
  mutable clean_skips : int;
      (* pages whose cached checksum was reused because no write was
         observed since their previous scan *)
  mutable scanned_since_pass : bool;
      (* incremental mode: only count a pass when it examined something,
         so an idle scanner does not spin the pass counter *)
  mutable active : bool;
  (* pre-created handles: bumping one is a single match + float add, so
     the scan hot path stays free of per-event registry lookups *)
  m_passes : Sim.Telemetry.counter;
  m_scanned : Sim.Telemetry.counter;
  m_merged : Sim.Telemetry.counter;
  m_volatile : Sim.Telemetry.counter;
}

let create ?(config = default_config) ctx table =
  let engine = Sim.Ctx.engine ctx in
  let telemetry = Sim.Ctx.telemetry ctx in
  {
    engine;
    table;
    config;
    trace = Sim.Ctx.trace ctx;
    slots = [||];
    n_slots = 0;
    stable = Int_tbl.create 4096;
    unstable = Int_tbl.create 4096;
    cursor_space = 0;
    cursor_page = 0;
    full_scans = 0;
    merges = 0;
    volatile_skips = 0;
    clean_skips = 0;
    scanned_since_pass = false;
    active = false;
    m_passes = Sim.Telemetry.counter telemetry ~component:"ksm" "scan_passes_total";
    m_scanned = Sim.Telemetry.counter telemetry ~component:"ksm" "pages_scanned_total";
    m_merged = Sim.Telemetry.counter telemetry ~component:"ksm" "pages_merged_total";
    m_volatile =
      Sim.Telemetry.counter telemetry ~component:"ksm" "pages_volatile_skipped_total";
  }

let emit t fmt =
  Sim.Trace.emitf t.trace (Sim.Engine.now t.engine) Sim.Trace.Info ~component:"ksm" fmt

let slot_index t space =
  let rec go i =
    if i >= t.n_slots then None
    else if t.slots.(i).space == space then Some i
    else go (i + 1)
  in
  go 0

let register t space =
  if not (Address_space.is_root space) then
    invalid_arg "Ksm.register: only root address spaces are mergeable";
  if slot_index t space = None then begin
    let pages = Address_space.pages space in
    let rescan = Dirty.create pages in
    (* every page starts pending: never-scanned pages must be visited
       even though no write has been observed yet *)
    for i = 0 to pages - 1 do
      Dirty.set rescan i
    done;
    Address_space.watch_writes space rescan;
    let slot =
      { space; checksums = Array.make pages never_scanned; rescan; settled = Dirty.create pages }
    in
    if t.n_slots = Array.length t.slots then begin
      let grown = Array.make (max 4 (2 * t.n_slots)) slot in
      Array.blit t.slots 0 grown 0 t.n_slots;
      t.slots <- grown
    end;
    t.slots.(t.n_slots) <- slot;
    t.n_slots <- t.n_slots + 1;
    emit t "registered %s (%d pages)" (Address_space.name space) (Address_space.pages space)
  end

let unregister t space =
  match slot_index t space with
  | None -> ()
  | Some idx ->
    Address_space.unwatch_writes space t.slots.(idx).rescan;
    (* drop this pass's unstable candidates that point into the removed
       space; the rest of the pass's progress is kept (entries for later
       slots drift one index and are caught by content re-validation) *)
    let stale =
      Int_tbl.fold
        (fun key enc acc -> if enc lsr 32 = idx then key :: acc else acc)
        t.unstable []
    in
    List.iter (Int_tbl.remove t.unstable) stale;
    for i = idx to t.n_slots - 2 do
      t.slots.(i) <- t.slots.(i + 1)
    done;
    t.n_slots <- t.n_slots - 1;
    (* the cursor only steps over the removed space: scanning resumes at
       the same point of the pass, not at the start of a new one *)
    if idx < t.cursor_space then t.cursor_space <- t.cursor_space - 1
    else if idx = t.cursor_space then t.cursor_page <- 0;
    if t.cursor_space >= t.n_slots then begin
      t.cursor_space <- 0;
      t.cursor_page <- 0
    end

(* Stable-tree lookups answer a frame, or [no_frame] when there is no
   valid entry; frames are non-negative. *)
let no_frame = -1

(* A stable-tree entry is valid only while its frame is still live,
   flagged stable, and holding the content it was indexed under (CoW can
   have recycled it). Invalid entries are pruned on lookup. Page [i] of
   [space] is read only on a checksum hit, so a miss - the
   overwhelmingly common case - never touches the probing page. *)
let stable_lookup t space i checksum =
  match Int_tbl.find t.stable checksum with
  | exception Not_found -> no_frame
  | f ->
    let valid =
      Frame_table.is_live t.table f
      && Frame_table.is_stable t.table f
      && Page.Content.equal (Frame_table.content t.table f) (Address_space.read space i)
    in
    if valid then f
    else begin
      Int_tbl.remove t.stable checksum;
      no_frame
    end

let merge_into_stable t space i stable_frame =
  Address_space.remap space i stable_frame;
  t.merges <- t.merges + 1;
  Sim.Telemetry.incr t.m_merged

let promote_to_stable t space i =
  let f = Address_space.frame_at space i in
  Frame_table.mark_stable t.table f;
  Int_tbl.replace t.stable (Page.Content.hash (Frame_table.content t.table f)) f;
  f

(* The unstable tree holds one candidate per content recorded earlier in
   this pass; an entry is only useful while its slot/page still exists
   and still holds that content. Answers whether page [i] was merged. *)
let scan_unstable t slot_idx space i checksum f =
  let self = (slot_idx lsl 32) lor i in
  match Int_tbl.find t.unstable checksum with
  | exception Not_found ->
    Int_tbl.replace t.unstable checksum self;
    false
  | enc ->
    let idx' = enc lsr 32 and i' = enc land 0xFFFF_FFFF in
    let valid =
      idx' < t.n_slots
      &&
      let space' = t.slots.(idx').space in
      i' < Address_space.pages space'
      && Page.Content.equal (Address_space.read space' i') (Address_space.read space i)
    in
    if not valid then begin
      Int_tbl.replace t.unstable checksum self;
      false
    end
    else
      let space' = t.slots.(idx').space in
      (* the candidate may be this very page, recorded earlier in the
         pass: then it sits on frame [f] too *)
      let f' = Address_space.frame_at space' i' in
      if f' = f then false
      else begin
        (* Two distinct frames with equal content: promote the earlier
           candidate to the stable tree and merge this page into it. *)
        let s = promote_to_stable t space' i' in
        merge_into_stable t space i s;
        Int_tbl.remove t.unstable checksum;
        true
      end

let scan_page t slot_idx slot i =
  let space = slot.space in
  let was_written = Dirty.test_and_clear slot.rescan i in
  let previous = slot.checksums.(i) in
  (* Cached-checksum fast path: if no write was observed since the
     previous scan, the content - and therefore its hash - cannot have
     changed (every content change goes through [Address_space.write],
     and KSM's own remaps are content-preserving), so the page is not
     read at all. Behaviour is identical by construction. Elsewhere the
     content is read where it is compared: [read] has no side effects,
     so reading twice costs two loads and nothing else. *)
  let checksum =
    if (not was_written) && previous <> never_scanned then begin
      t.clean_skips <- t.clean_skips + 1;
      previous
    end
    else Page.Content.hash (Address_space.read space i)
  in
  slot.checksums.(i) <- checksum;
  let f = Address_space.frame_at space i in
  let settled =
    if Frame_table.is_stable t.table f then
      (* Already merged; nothing to do this pass. *)
      true
    else
      let s = stable_lookup t space i checksum in
      if s <> no_frame then begin
        if s <> f then merge_into_stable t space i s;
        true
      end
      else if previous <> never_scanned && previous <> checksum then begin
        (* Volatile page: the content moved since the previous scan, so it
           would only pollute the unstable tree (real ksmd's checksum
           skip). A page seen for the first time is taken at face value. *)
        t.volatile_skips <- t.volatile_skips + 1;
        Sim.Telemetry.incr t.m_volatile;
        (* keep the churner in the rescan set: the incremental sweep
           only visits dirty pages, and a page that settles after one
           write must still get the quiescent revisit that admits it to
           the unstable tree *)
        Dirty.set slot.rescan i;
        false
      end
      else scan_unstable t slot_idx space i checksum f
  in
  if settled then Dirty.set slot.settled i else ignore (Dirty.test_and_clear slot.settled i)

let total_pages t =
  let acc = ref 0 in
  for i = 0 to t.n_slots - 1 do
    acc := !acc + Address_space.pages t.slots.(i).space
  done;
  !acc

let complete_pass t =
  t.full_scans <- t.full_scans + 1;
  Sim.Telemetry.incr t.m_passes;
  (* The incremental sweep keeps its unstable candidates across passes:
     clean pages are never revisited, so dropping their entries would
     lose the merge partners they advertise. Entries are re-validated by
     content on every hit, which keeps staleness harmless. *)
  if not t.config.incremental then Int_tbl.reset t.unstable;
  emit t "full pass %d complete (%d merges so far)" t.full_scans t.merges

(* Full sweep: every wakeup visits the next [pages_to_scan] pages in
   order. A run of settled pages with no write since their last visit is
   stepped over in bulk - each of them would be a no-op visit that only
   reuses its cached checksum - and counted as that many visits; any
   other page is visited. A run stops at the end of its slot, so the
   cursor and pass accounting move exactly as page-by-page visits would
   move them. Every space has at least one page, so the wakeup visits
   exactly [pages_to_scan] pages. *)
let scan_once_full t =
  let budget = ref t.config.pages_to_scan in
  while !budget > 0 do
    let slot = t.slots.(t.cursor_space) in
    let page = t.cursor_page in
    let run = Dirty.run_set_clean slot.settled ~unless:slot.rescan page ~limit:!budget in
    let step =
      if run > 0 then begin
        t.clean_skips <- t.clean_skips + run;
        run
      end
      else begin
        scan_page t t.cursor_space slot page;
        1
      end
    in
    budget := !budget - step;
    if page + step < Address_space.pages slot.space then t.cursor_page <- page + step
    else begin
      t.cursor_page <- 0;
      t.cursor_space <- t.cursor_space + 1;
      if t.cursor_space >= t.n_slots then begin
        t.cursor_space <- 0;
        complete_pass t
      end
    end
  done;
  Sim.Telemetry.add t.m_scanned t.config.pages_to_scan

(* Incremental sweep: visit only pages whose rescan bit is set (written
   since their last visit, or never scanned). A space whose rescan
   bitmap is clean is hopped over on its dirty count alone, and inside a
   dirty space clean ranges are skipped a word at a time. The wakeup
   budget is spent on examined pages, so a steady state where few pages
   are dirtied costs O(spaces + words of the dirty spaces + dirtied
   pages), not O(table), and an idle wakeup costs O(spaces). The
   slot-hop budget bounds an idle sweep to one lap, and a lap that
   examined nothing does not count as a pass. *)
let scan_once_incremental t =
  let next_slot t =
    t.cursor_page <- 0;
    t.cursor_space <- t.cursor_space + 1;
    if t.cursor_space >= t.n_slots then begin
      t.cursor_space <- 0;
      if t.scanned_since_pass then begin
        t.scanned_since_pass <- false;
        complete_pass t
      end
    end
  in
  let scanned = ref 0 in
  let budget = ref t.config.pages_to_scan in
  let hops = ref 0 in
  while !budget > 0 && !hops <= t.n_slots && t.n_slots > 0 do
    let slot = t.slots.(t.cursor_space) in
    match Dirty.next_dirty_from slot.rescan t.cursor_page with
    | Some i ->
      scan_page t t.cursor_space slot i;
      incr scanned;
      decr budget;
      hops := 0;
      t.scanned_since_pass <- true;
      t.cursor_page <- i + 1;
      if t.cursor_page >= Address_space.pages slot.space then next_slot t
    | None ->
      incr hops;
      next_slot t
  done;
  Sim.Telemetry.add t.m_scanned !scanned

let scan_once t =
  if t.n_slots > 0 then
    if t.config.incremental then scan_once_incremental t else scan_once_full t

let start t =
  if not t.active then begin
    t.active <- true;
    Sim.Engine.periodic t.engine ~every:t.config.sleep (fun () ->
        if t.active then scan_once t;
        t.active)
  end

let stop t = t.active <- false
let full_scans t = t.full_scans
let pages_merged t = t.merges
let pages_volatile_skipped t = t.volatile_skips
let pages_rescan_avoided t = t.clean_skips

let pages_shared t =
  Int_tbl.fold
    (fun checksum f acc ->
      let live =
        Frame_table.is_live t.table f
        && Frame_table.is_stable t.table f
        && Page.Content.hash (Frame_table.content t.table f) = checksum
      in
      if live then acc + 1 else acc)
    t.stable 0

let pages_sharing t = Frame_table.sharing_savings_pages t.table

(* An unstable entry is "current" while its packed (slot, page) still
   exists and the page still hashes to the entry's key; anything else is
   drift the scan re-validates away on its next hit. *)
let fold_current_unstable t f init =
  Int_tbl.fold
    (fun checksum enc acc ->
      let idx = enc lsr 32 and i = enc land 0xFFFF_FFFF in
      if
        idx < t.n_slots
        && i < Address_space.pages t.slots.(idx).space
        && Page.Content.hash (Address_space.read t.slots.(idx).space i) = checksum
      then f acc t.slots.(idx).space i
      else acc)
    t.unstable init

let unstable_candidates t = fold_current_unstable t (fun acc _ _ -> acc + 1) 0

let check_invariants t =
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  (* No page lives in both trees: a current unstable candidate must not
     sit on a frame the stable tree owns (merged pages either leave the
     unstable tree or go stale, never both). *)
  fold_current_unstable t
    (fun () space i ->
      let f = Address_space.frame_at space i in
      if Frame_table.is_stable t.table f then
        fail "unstable candidate %s[%d] references a stable frame" (Address_space.name space) i)
    ();
  (* Every still-valid stable-tree entry is flagged stable under the
     content it is keyed by. *)
  Int_tbl.iter
    (fun checksum f ->
      if
        Frame_table.is_live t.table f
        && Page.Content.hash (Frame_table.content t.table f) = checksum
        && not (Frame_table.is_stable t.table f)
      then fail "stable-tree frame %d is not flagged stable" f)
    t.stable;
  (* A settled page with no write since its last visit - one the full
     sweep steps over - still sits on a live stable frame, and its cached
     checksum is the hash of its content. *)
  for k = 0 to t.n_slots - 1 do
    let { space; checksums; rescan; settled } = t.slots.(k) in
    Dirty.fold_dirty settled
      (fun () i ->
        if not (Dirty.is_dirty rescan i) then begin
          let f = Address_space.frame_at space i in
          if not (Frame_table.is_live t.table f && Frame_table.is_stable t.table f) then
            fail "settled page %s[%d] is not on a live stable frame" (Address_space.name space) i
          else if checksums.(i) <> Page.Content.hash (Frame_table.content t.table f) then
            fail "settled page %s[%d] has a stale checksum" (Address_space.name space) i
        end)
      ()
  done;
  (* Sharing accounting: merging is the only source of frame sharing, so
     the references saved can never exceed the merges performed. *)
  if pages_sharing t > t.merges then
    fail "pages_sharing (%d) exceeds pages_merged (%d)" (pages_sharing t) t.merges;
  if pages_shared t > Int_tbl.length t.stable then
    fail "pages_shared (%d) exceeds the stable table (%d entries)" (pages_shared t)
      (Int_tbl.length t.stable);
  match !err with None -> Ok () | Some e -> Error e

let time_for_full_pass t =
  let pages = total_pages t in
  if pages = 0 then Sim.Time.zero
  else
    let wakeups = (pages + t.config.pages_to_scan - 1) / t.config.pages_to_scan in
    Sim.Time.mul t.config.sleep (float_of_int wakeups)
