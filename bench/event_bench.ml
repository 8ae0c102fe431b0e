(* The measurements behind queue_bench's CI gates: incremental vs full
   KSM rescan cost, the cost of an idle incremental KSM wakeup, the cost
   of a full-sweep wakeup over merged pages against one over distinct
   pages, the allocation of a KSM scan per page and per merge, and the
   allocation of the guest write and page copy paths per page. *)

(* The lowest of [repeats] calls of [once], so one scheduler hiccup on a
   shared machine does not end up in the recorded figure. *)
let best_of repeats once =
  let best = ref (once ()) in
  for _ = 2 to repeats do
    let ns = once () in
    if ns < !best then best := ns
  done;
  !best

(* A multi-tenant KSM population: 64 spaces x 256 pages, scanned to
   steady state. The pages are all distinct, or with [~merged:true] page
   [i] of every space holds the same content, so steady state is 256
   stable frames each shared by all 64 spaces. *)
let ksm_world ?(merged = false) ~incremental () =
  let ctx = Sim.Ctx.create () in
  let ft = Memory.Frame_table.create ctx in
  let config =
    { Memory.Ksm.pages_to_scan = 16384; sleep = Sim.Time.ms 1.; incremental }
  in
  let ksm = Memory.Ksm.create ~config ctx ft in
  let spaces =
    Array.init 64 (fun k ->
        let s =
          Memory.Address_space.create_root ft ~name:(Printf.sprintf "s%d" k) ~pages:256
        in
        for i = 0 to 255 do
          let c = if merged then i else (k * 256) + i in
          ignore (Memory.Address_space.write s i (Memory.Page.Content.of_int c))
        done;
        Memory.Ksm.register ksm s;
        s)
  in
  for _ = 1 to 4 do
    Memory.Ksm.scan_once ksm
  done;
  (ksm, spaces)

(* Minor-heap words a full-sweep wakeup allocates per scanned page, over
   [iters] wakeups of the [ksm_world] population at steady state. A
   count of the work, not of host time: it reads the same on every run
   and every build, so its gate can be tight. *)
let ksm_scan_minor_words_per_page ~iters =
  let ksm, spaces = ksm_world ~incremental:false () in
  let pages = Array.fold_left (fun n s -> n + Memory.Address_space.pages s) 0 spaces in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    Memory.Ksm.scan_once ksm
  done;
  (Gc.minor_words () -. w0) /. float_of_int (iters * pages)

(* Minor-heap words per page of the page path: a guest rewrite of every
   page of a root ([Address_space.mutate]) and a copy of each into a
   window of a window ([Address_space.copy]) whose root KSM watches -
   the re-dirtying and page-copy halves of a pre-copy round, through
   every dirty bitmap and watcher a nested destination carries. Counted
   over [iters] passes of 1024 pages. *)
let page_path_minor_words_per_page ~iters =
  let ctx = Sim.Ctx.create () in
  let ft = Memory.Frame_table.create ctx in
  let pages = 1024 in
  let src = Memory.Address_space.create_root ft ~name:"src" ~pages in
  let l1 = Memory.Address_space.create_root ft ~name:"l1" ~pages:(4 * pages) in
  let l2 = Memory.Address_space.window l1 ~name:"l2" ~offset:pages ~pages:(2 * pages) in
  let dst = Memory.Address_space.window l2 ~name:"dst" ~offset:(pages / 2) ~pages in
  let ksm = Memory.Ksm.create ctx ft in
  Memory.Ksm.register ksm l1;
  let w0 = Gc.minor_words () in
  for pass = 1 to iters do
    for i = 0 to pages - 1 do
      ignore (Memory.Address_space.mutate src i ~salt:pass);
      ignore (Memory.Address_space.copy ~src i ~dst i)
    done
  done;
  (Gc.minor_words () -. w0) /. float_of_int (iters * pages)

(* Minor-heap words per merge, over [iters] rounds of the merged
   [ksm_world]: each round rewrites every page of spaces 1..63 with the
   content it already holds - a CoW break onto a fresh private frame -
   and one full-sweep wakeup merges each back into space 0's stable
   frame, freeing the private frame. A count of the work, like
   [ksm_scan_minor_words_per_page]; the contents are built before the
   count starts, since [Page.Content.of_int] returns a boxed int64. *)
let ksm_merge_minor_words_per_merge ~iters =
  let ksm, spaces = ksm_world ~merged:true ~incremental:false () in
  let contents = Array.init 256 Memory.Page.Content.of_int in
  let merges0 = Memory.Ksm.pages_merged ksm in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    for k = 1 to 63 do
      for i = 0 to 255 do
        ignore (Memory.Address_space.write spaces.(k) i contents.(i))
      done
    done;
    Memory.Ksm.scan_once ksm
  done;
  (Gc.minor_words () -. w0) /. float_of_int (Memory.Ksm.pages_merged ksm - merges0)

(* Host ns of one full-sweep wakeup (the whole table, 16384 pages) at
   steady state, best of three timed loops of [iters]: over the merged
   [ksm_world] every page is settled and the sweep steps over them a
   bitmap word at a time; over the distinct one every page is visited.
   The CI smoke gates the ratio between the two. *)
let ksm_full_wakeup_ns ~merged ~iters =
  let ksm, _ = ksm_world ~merged ~incremental:false () in
  best_of 3 (fun () ->
      (* skulkscope: allow wall-clock — times the simulator itself (host CPU seconds), not simulated work *)
      let t0 = Sys.time () in
      for _ = 1 to iters do
        Memory.Ksm.scan_once ksm
      done;
      (* skulkscope: allow wall-clock — closes the host-clock interval opened above *)
      (Sys.time () -. t0) *. 1e9 /. float_of_int iters)

(* Steady-state rescan: dirty ~1% of the table between wakeups, then
   take one scan_once. Returns ns per dirtied page; the full sweep
   walks all 16384 pages per wakeup (cached checksums, but every page
   visited), the incremental sweep only the dirtied ones, so the ratio
   is the O(table) -> O(dirtied) win. The loop also pays for the writes
   themselves - identical in both modes. *)
let ksm_rescan_ns_per_dirtied_page ~incremental ~iters =
  let ksm, spaces = ksm_world ~incremental () in
  let rng = Sim.Rng.create 23 in
  let dirtied_per_iter = 164 in
  let stamp = ref 1_000_000 in
  (* skulkscope: allow wall-clock — times the simulator itself (host CPU seconds), not simulated work *)
  let t0 = Sys.time () in
  for _ = 1 to iters do
    for _ = 1 to dirtied_per_iter do
      let s = spaces.(Sim.Rng.int rng 64) in
      incr stamp;
      ignore
        (Memory.Address_space.write s (Sim.Rng.int rng 256)
           (Memory.Page.Content.of_int !stamp))
    done;
    Memory.Ksm.scan_once ksm
  done;
  (* skulkscope: allow wall-clock — closes the host-clock interval opened above *)
  (Sys.time () -. t0) *. 1e9 /. float_of_int (iters * dirtied_per_iter)

(* Idle incremental wakeup: [spaces] spaces of [pages] distinct pages,
   scanned to quiescence, then [iters] wakeups with nothing dirtied.
   Returns ns per wakeup, best of three timed loops. A clean space
   is skipped on its dirty count, so the cost tracks the number of
   spaces, not their size: the CI smoke gates the ratio between a large
   and a small table of the same space count. *)
let ksm_idle_wakeup_ns ~spaces ~pages ~iters =
  let ctx = Sim.Ctx.create () in
  let ft = Memory.Frame_table.create ctx in
  let config =
    { Memory.Ksm.pages_to_scan = spaces * pages; sleep = Sim.Time.ms 1.; incremental = true }
  in
  let ksm = Memory.Ksm.create ~config ctx ft in
  for k = 0 to spaces - 1 do
    let s = Memory.Address_space.create_root ft ~name:(Printf.sprintf "s%d" k) ~pages in
    for i = 0 to pages - 1 do
      ignore (Memory.Address_space.write s i (Memory.Page.Content.of_int ((k * pages) + i)))
    done;
    Memory.Ksm.register ksm s
  done;
  (* one wakeup visits every never-scanned page; distinct contents are
     taken at face value, so the table is quiescent afterwards *)
  Memory.Ksm.scan_once ksm;
  best_of 3 (fun () ->
      (* skulkscope: allow wall-clock — times the simulator itself (host CPU seconds), not simulated work *)
      let t0 = Sys.time () in
      for _ = 1 to iters do
        Memory.Ksm.scan_once ksm
      done;
      (* skulkscope: allow wall-clock — closes the host-clock interval opened above *)
      (Sys.time () -. t0) *. 1e9 /. float_of_int iters)
