(* Standalone KSM and page-path benchmark, used as the CI perf smoke:
   prints incremental-vs-full KSM rescan cost, the cost of an idle
   incremental KSM wakeup, the cost of a full-sweep wakeup over settled
   pages, the allocation of a full KSM sweep and of a KSM merge, and the
   allocation of the page path (a guest rewrite plus a page copy into a
   nested window), and exits non-zero on any of six gates:
   - the incremental rescan stops clearly beating the full sweep (2x);
   - an idle wakeup stops costing O(spaces): over 64 spaces, one of 4096
     pages each must cost under 3x one of 64 pages each (about 1x when
     clean spaces are skipped on their dirty count, 10x or more when
     every bitmap word is walked);
   - a full-sweep wakeup over 64 x 256 merged, settled pages costs 1/40
     or more of one over 64 x 256 distinct pages (about 1/1500 when the
     settled pages are stepped over a bitmap word at a time, about 1/13
     when each is visited);
   - a full KSM sweep allocates more than 5 minor-heap words per
     scanned page;
   - a merge allocates more than 0.5 minor-heap words (a free-list cons
     per freed frame costs 3);
   - the page path allocates more than 0.5 minor-heap words per page.
   The three timing gates are ratios of two timings on one machine with
   a wide margin, so shared CI runners do not flake; a real regression -
   a rescan or wakeup degrading to a walk of the whole table - trips them
   immediately. The allocation gates count words, not seconds, so they
   are tight. They hold for a release build (dune build --profile
   release): a dev build compiles every library -opaque, so nothing is
   inlined across modules and each page's content is boxed at every
   call.

   Usage: queue_bench [--quick]   (--quick shrinks iteration counts;
   any other argument is rejected with exit status 2) *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if not (List.for_all (String.equal "--quick") args) then begin
    prerr_endline "usage: queue_bench [--quick]";
    exit 2
  end;
  let quick = not (List.is_empty args) in
  let rescan_iters = if quick then 40 else 200 in
  Printf.printf "ksm rescan: 16384 pages, ~1%% dirtied per wakeup (%d wakeups)\n" rescan_iters;
  let full =
    Event_bench.ksm_rescan_ns_per_dirtied_page ~incremental:false ~iters:rescan_iters
  in
  let incr_ =
    Event_bench.ksm_rescan_ns_per_dirtied_page ~incremental:true ~iters:rescan_iters
  in
  Printf.printf "  %-34s %10.1f ns/dirtied page\n" "full sweep" full;
  Printf.printf "  %-34s %10.1f ns/dirtied page\n" "incremental sweep" incr_;
  let rescan_speedup = full /. incr_ in
  Printf.printf "  incremental speedup: %.2fx\n" rescan_speedup;
  let idle_iters = if quick then 20_000 else 100_000 in
  Printf.printf "ksm idle incremental wakeup: 64 spaces, nothing dirtied (%d wakeups)\n"
    idle_iters;
  let idle pages = Event_bench.ksm_idle_wakeup_ns ~spaces:64 ~pages ~iters:idle_iters in
  let idle_small = idle 64 and idle_large = idle 4096 in
  Printf.printf "  %-34s %10.1f ns/wakeup\n" "64 x 64 pages" idle_small;
  Printf.printf "  %-34s %10.1f ns/wakeup\n" "64 x 4096 pages" idle_large;
  let idle_ratio = idle_large /. idle_small in
  Printf.printf "  large/small ratio: %.2fx\n" idle_ratio;
  (* a settled wakeup is about a thousand times cheaper: give it more
     iterations, so each timed loop still lasts milliseconds *)
  let distinct_iters = if quick then 20 else 100 in
  let settled_iters = 100 * distinct_iters in
  Printf.printf
    "ksm full-sweep wakeup: 64 x 256 pages, whole table per wakeup (%d and %d wakeups)\n"
    distinct_iters settled_iters;
  let sweep_distinct = Event_bench.ksm_full_wakeup_ns ~merged:false ~iters:distinct_iters in
  let sweep_merged = Event_bench.ksm_full_wakeup_ns ~merged:true ~iters:settled_iters in
  Printf.printf "  %-34s %10.1f ns/wakeup\n" "distinct pages" sweep_distinct;
  Printf.printf "  %-34s %10.1f ns/wakeup\n" "merged, settled pages" sweep_merged;
  let sweep_ratio = sweep_merged /. sweep_distinct in
  Printf.printf "  merged/distinct ratio: %.4fx\n" sweep_ratio;
  let scan_iters = 100 in
  Printf.printf "ksm full sweep allocation: 64 x 256 pages (%d wakeups)\n" scan_iters;
  let scan_words = Event_bench.ksm_scan_minor_words_per_page ~iters:scan_iters in
  Printf.printf "  %-34s %10.2f minor words/page\n" "full sweep" scan_words;
  let merge_iters = 20 in
  Printf.printf "ksm merge allocation: 63 x 256 CoW rewrites merged back per wakeup (%d wakeups)\n"
    merge_iters;
  let merge_words = Event_bench.ksm_merge_minor_words_per_merge ~iters:merge_iters in
  Printf.printf "  %-34s %10.2f minor words/merge\n" "rewrite + merge" merge_words;
  let path_iters = 100 in
  Printf.printf "page path allocation: mutate + copy into a nested window, 1024 pages (%d passes)\n"
    path_iters;
  let path_words = Event_bench.page_path_minor_words_per_page ~iters:path_iters in
  Printf.printf "  %-34s %10.2f minor words/page\n" "mutate + copy" path_words;
  let failures = ref [] in
  if rescan_speedup < 2. then
    failures := Printf.sprintf "incremental rescan speedup %.2fx < 2x" rescan_speedup :: !failures;
  if idle_ratio > 3. then
    failures :=
      Printf.sprintf "idle wakeup over 64 x 4096 pages costs %.2fx one over 64 x 64 (> 3x)"
        idle_ratio
      :: !failures;
  if sweep_ratio >= 1. /. 40. then
    failures :=
      Printf.sprintf
        "full-sweep wakeup over settled pages costs %.4fx one over distinct pages (>= 1/40)"
        sweep_ratio
      :: !failures;
  if scan_words > 5. then
    failures :=
      Printf.sprintf "ksm full sweep allocates %.2f minor words/page (> 5)" scan_words
      :: !failures;
  if merge_words > 0.5 then
    failures :=
      Printf.sprintf "ksm merge allocates %.2f minor words/merge (> 0.5)" merge_words
      :: !failures;
  if path_words > 0.5 then
    failures :=
      Printf.sprintf "page path allocates %.2f minor words/page (> 0.5)" path_words
      :: !failures;
  match !failures with
  | [] -> print_endline "smoke: OK"
  | fs ->
    List.iter (fun f -> Printf.eprintf "smoke FAIL: %s\n" f) fs;
    exit 1
