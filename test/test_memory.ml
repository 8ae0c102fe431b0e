(* Tests for the memory substrate: frames, address spaces (including
   nested windows), dirty tracking, KSM merging, and the write-timing
   probe that the detector builds on. *)

let rng () = Sim.Rng.create 42

let content_tests =
  let open Memory.Page in
  [
    Alcotest.test_case "of_int is deterministic and distinct" `Quick (fun () ->
        Alcotest.(check bool) "equal" true (Content.equal (Content.of_int 5) (Content.of_int 5));
        Alcotest.(check bool) "distinct" false
          (Content.equal (Content.of_int 5) (Content.of_int 6)));
    Alcotest.test_case "of_int never collides with the zero page" `Quick (fun () ->
        for i = 0 to 1000 do
          Alcotest.(check bool) "non-zero" false (Content.is_zero (Content.of_int i))
        done);
    Alcotest.test_case "mutate changes content" `Quick (fun () ->
        let c = Content.of_int 9 in
        Alcotest.(check bool) "differs" false (Content.equal c (Content.mutate c ~salt:0)));
    Alcotest.test_case "mutate is deterministic per salt" `Quick (fun () ->
        let c = Content.of_int 9 in
        Alcotest.(check bool) "same salt same result" true
          (Content.equal (Content.mutate c ~salt:3) (Content.mutate c ~salt:3));
        Alcotest.(check bool) "different salt different result" false
          (Content.equal (Content.mutate c ~salt:3) (Content.mutate c ~salt:4)));
    Alcotest.test_case "pages_of_bytes rounds up" `Quick (fun () ->
        Alcotest.(check int) "exact" 1 (Memory.Page.pages_of_bytes 4096);
        Alcotest.(check int) "round up" 2 (Memory.Page.pages_of_bytes 4097);
        Alcotest.(check int) "zero" 0 (Memory.Page.pages_of_bytes 0));
    Alcotest.test_case "int64 round-trip" `Quick (fun () ->
        let c = Content.of_int64 0xDEADBEEFL in
        Alcotest.(check int64) "round trip" 0xDEADBEEFL (Content.to_int64 c));
  ]

let frame_tests =
  let open Memory.Frame_table in
  [
    Alcotest.test_case "alloc gives private frame" `Quick (fun () ->
        let t = create (Sim.Ctx.create ()) in
        let f = alloc t (Memory.Page.Content.of_int 1) in
        Alcotest.(check int) "refcount" 1 (refcount t f);
        Alcotest.(check bool) "not shared" false (is_shared t f);
        Alcotest.(check int) "live" 1 (live_frames t));
    Alcotest.test_case "incref/decref lifecycle" `Quick (fun () ->
        let t = create (Sim.Ctx.create ()) in
        let f = alloc t (Memory.Page.Content.of_int 1) in
        incref t f;
        Alcotest.(check bool) "shared" true (is_shared t f);
        decref t f;
        decref t f;
        Alcotest.(check int) "freed" 0 (live_frames t));
    Alcotest.test_case "freed frames are recycled" `Quick (fun () ->
        let t = create (Sim.Ctx.create ()) in
        let f = alloc t (Memory.Page.Content.of_int 1) in
        decref t f;
        let f2 = alloc t (Memory.Page.Content.of_int 2) in
        Alcotest.(check int) "same slot" f f2);
    Alcotest.test_case "alloc returns the most recently freed frame first" `Quick (fun () ->
        (* 1500 frees outgrow the free stack's first 1024 slots, so the
           reuse order is checked across a stack growth too *)
        let t = create (Sim.Ctx.create ()) in
        let n = 1500 in
        let frames = Array.init n (fun k -> alloc t (Memory.Page.Content.of_int k)) in
        let order = Array.init n (fun k -> frames.((k * 7) mod n)) in
        Array.iter (decref t) order;
        (match check_invariants t with Ok () -> () | Error e -> Alcotest.fail e);
        let reused = Array.init n (fun k -> alloc t (Memory.Page.Content.of_int (n + k))) in
        let last_freed_first = Array.init n (fun k -> order.(n - 1 - k)) in
        Alcotest.(check (array int)) "reverse of the free order" last_freed_first reused;
        Alcotest.(check int) "an empty stack hands out a fresh id" n
          (alloc t (Memory.Page.Content.of_int 0));
        match check_invariants t with Ok () -> () | Error e -> Alcotest.fail e);
    Alcotest.test_case "capacity enforced" `Quick (fun () ->
        let t = create ~capacity_frames:2 (Sim.Ctx.create ()) in
        ignore (alloc t (Memory.Page.Content.of_int 1));
        ignore (alloc t (Memory.Page.Content.of_int 2));
        Alcotest.(check bool) "raises OOM" true
          (try
             ignore (alloc t (Memory.Page.Content.of_int 3));
             false
           with Out_of_memory_frames -> true));
    Alcotest.test_case "sharing accounting" `Quick (fun () ->
        let t = create (Sim.Ctx.create ()) in
        let f = alloc t (Memory.Page.Content.of_int 1) in
        incref t f;
        incref t f;
        ignore (alloc t (Memory.Page.Content.of_int 2));
        Alcotest.(check int) "shared frames" 1 (shared_frames t);
        Alcotest.(check int) "savings = refs-1" 2 (sharing_savings_pages t));
    Alcotest.test_case "stable flag" `Quick (fun () ->
        let t = create (Sim.Ctx.create ()) in
        let f = alloc t (Memory.Page.Content.of_int 1) in
        Alcotest.(check bool) "initially unstable" false (is_stable t f);
        mark_stable t f;
        Alcotest.(check bool) "stable" true (is_stable t f));
    Alcotest.test_case "frame state survives two grows, frees and reuse" `Quick (fun () ->
        let t = create (Sim.Ctx.create ()) in
        let module C = Memory.Page.Content in
        (* 3 x 1024 + 100 frames: the table grows 1024 -> 2048 -> 4096.
           Contents span both signs (min_int and -1 included), so a
           sign bit lost in the byte encoding shows up as a mismatch. *)
        let n = (3 * 1024) + 100 in
        let content_of k =
          match k with
          | 0 -> Int64.min_int
          | 1 -> -1L
          | 2 -> Int64.max_int
          | k when k mod 2 = 0 -> Int64.of_int (k * 7919)
          | k -> Int64.(add min_int (of_int (k * 7919)))
        in
        (* the model: per frame id, (content, refs, stable) while live *)
        let model = Hashtbl.create n in
        let ids =
          Array.init n (fun k ->
              let f = alloc t (C.of_int64 (content_of k)) in
              Alcotest.(check bool) "fresh id" false (Hashtbl.mem model f);
              Hashtbl.replace model f (content_of k, 1, false);
              f)
        in
        (* flag some of the frames about to be freed, so freeing must
           also clear the stable byte *)
        Array.iteri
          (fun k f ->
            if k mod 6 = 0 then begin
              mark_stable t f;
              Hashtbl.replace model f (content_of k, 1, true)
            end)
          ids;
        let freed = List.filteri (fun k _ -> k mod 3 = 0) (Array.to_list ids) in
        List.iter
          (fun f ->
            decref t f;
            Hashtbl.remove model f;
            Alcotest.(check bool) "freed is not live" false (is_live t f))
          freed;
        (match check_invariants t with Ok () -> () | Error e -> Alcotest.fail e);
        let reused =
          List.map
            (fun _ ->
              let c = Int64.neg (Int64.of_int (Hashtbl.length model + 17)) in
              let f = alloc t (C.of_int64 c) in
              Alcotest.(check bool) "reused id is not stable" false (is_stable t f);
              Hashtbl.replace model f (c, 1, false);
              f)
            freed
        in
        Alcotest.(check (list int)) "freed ids are reused"
          (List.sort Int.compare freed)
          (List.sort Int.compare reused);
        Array.iteri
          (fun k f ->
            let c, r, s = Hashtbl.find model f in
            if k mod 5 = 1 then begin
              let c = Int64.lognot c in
              write t f (C.of_int64 c);
              Hashtbl.replace model f (c, r, s)
            end;
            let c, r, s = Hashtbl.find model f in
            if k mod 7 = 2 then begin
              incref t f;
              Hashtbl.replace model f (c, r + 1, s)
            end;
            let c, r, _ = Hashtbl.find model f in
            if k mod 4 = 3 then begin
              mark_stable t f;
              Hashtbl.replace model f (c, r, true)
            end)
          ids;
        Alcotest.(check int) "live" (Hashtbl.length model) (live_frames t);
        Hashtbl.iter
          (fun f (c, r, s) ->
            let tag = Printf.sprintf "frame %d" f in
            Alcotest.(check int64) (tag ^ " content") c (C.to_int64 (content t f));
            Alcotest.(check int) (tag ^ " refcount") r (refcount t f);
            Alcotest.(check bool) (tag ^ " stable") s (is_stable t f))
          model;
        match check_invariants t with Ok () -> () | Error e -> Alcotest.fail e);
  ]

let dirty_tests =
  let open Memory.Dirty in
  [
    Alcotest.test_case "set and count" `Quick (fun () ->
        let d = create 100 in
        set d 3;
        set d 97;
        set d 3;
        Alcotest.(check int) "count dedups" 2 (dirty_count d);
        Alcotest.(check bool) "is_dirty" true (is_dirty d 3);
        Alcotest.(check bool) "clean page" false (is_dirty d 4));
    Alcotest.test_case "collect_and_clear returns sorted and clears" `Quick (fun () ->
        let d = create 50 in
        List.iter (set d) [ 40; 2; 17 ];
        Alcotest.(check (list int)) "sorted" [ 2; 17; 40 ] (collect_and_clear d);
        Alcotest.(check int) "cleared" 0 (dirty_count d));
    Alcotest.test_case "out of range raises" `Quick (fun () ->
        let d = create 10 in
        Alcotest.(check bool) "raises" true
          (try
             set d 10;
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "boundary bits work" `Quick (fun () ->
        let d = create 17 in
        set d 0;
        set d 7;
        set d 8;
        set d 16;
        Alcotest.(check (list int)) "all kept" [ 0; 7; 8; 16 ] (collect_and_clear d));
    Alcotest.test_case "fold matches a naive bit walk at awkward lengths" `Quick (fun () ->
        List.iter
          (fun n ->
            let d = create n in
            for i = 0 to n - 1 do
              if i mod 3 = 0 || i = n - 1 then set d i
            done;
            let naive = ref [] in
            for i = length d - 1 downto 0 do
              if is_dirty d i then naive := i :: !naive
            done;
            Alcotest.(check (list int))
              (Printf.sprintf "fold, %d pages" n)
              !naive
              (List.rev (fold_dirty d (fun acc i -> i :: acc) [])))
          [ 1; 7; 8; 9; 31; 32; 33; 63; 64; 65 ]);
    Alcotest.test_case "fold sees every page when all are dirty" `Quick (fun () ->
        List.iter
          (fun n ->
            let d = create n in
            for i = 0 to n - 1 do
              set d i
            done;
            Alcotest.(check (list int))
              (Printf.sprintf "all dirty, %d pages" n)
              (List.init n Fun.id)
              (List.rev (fold_dirty d (fun acc i -> i :: acc) [])))
          [ 1; 7; 8; 9; 63; 64; 65 ]);
    Alcotest.test_case "fold sees nothing when none are dirty" `Quick (fun () ->
        List.iter
          (fun n ->
            let d = create n in
            Alcotest.(check int)
              (Printf.sprintf "none dirty, %d pages" n)
              0
              (fold_dirty d (fun acc _ -> acc + 1) 0))
          [ 1; 7; 8; 9; 63; 64; 65 ]);
    Alcotest.test_case "drain moves the bits and clears the source" `Quick (fun () ->
        let d = create 70 in
        let scratch = create 70 in
        List.iter (set d) [ 0; 31; 32; 64; 69 ];
        drain d ~into:scratch;
        Alcotest.(check int) "source cleared" 0 (dirty_count d);
        Alcotest.(check int) "count moved" 5 (dirty_count scratch);
        Alcotest.(check (list int)) "bits moved" [ 0; 31; 32; 64; 69 ]
          (List.rev (fold_dirty scratch (fun acc i -> i :: acc) []));
        (* drain overwrites the destination, it does not accumulate *)
        set d 5;
        drain d ~into:scratch;
        Alcotest.(check (list int)) "overwritten" [ 5 ]
          (List.rev (fold_dirty scratch (fun acc i -> i :: acc) [])));
    Alcotest.test_case "drain into a differently sized bitmap raises" `Quick (fun () ->
        let d = create 64 in
        let scratch = create 65 in
        Alcotest.(check bool) "raises" true
          (try
             drain d ~into:scratch;
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "test_and_clear retires one bit" `Quick (fun () ->
        let d = create 40 in
        set d 7;
        set d 32;
        Alcotest.(check bool) "clean page" false (test_and_clear d 8);
        Alcotest.(check bool) "dirty page" true (test_and_clear d 7);
        Alcotest.(check bool) "cleared by the test" false (is_dirty d 7);
        Alcotest.(check bool) "second call clean" false (test_and_clear d 7);
        Alcotest.(check int) "count follows" 1 (dirty_count d));
    Alcotest.test_case "next_dirty_from skips clean ranges" `Quick (fun () ->
        let d = create 100 in
        List.iter (set d) [ 2; 31; 32; 64; 97 ];
        Alcotest.(check (option int)) "from 0" (Some 2) (next_dirty_from d 0);
        Alcotest.(check (option int)) "from itself" (Some 2) (next_dirty_from d 2);
        Alcotest.(check (option int)) "word boundary" (Some 31) (next_dirty_from d 3);
        Alcotest.(check (option int)) "next word" (Some 32) (next_dirty_from d 32);
        Alcotest.(check (option int)) "across clean word" (Some 97) (next_dirty_from d 65);
        Alcotest.(check (option int)) "past the last bit" None (next_dirty_from d 98);
        Alcotest.(check (option int)) "at length" None (next_dirty_from d 100);
        Alcotest.(check int) "non-mutating" 5 (dirty_count d));
  ]

let space_tests =
  [
    Alcotest.test_case "fresh root space is all zero" `Quick (fun () ->
        let ft = Memory.Frame_table.create (Sim.Ctx.create ()) in
        let s = Memory.Address_space.create_root ft ~name:"ram" ~pages:16 in
        for i = 0 to 15 do
          Alcotest.(check bool) "zero" true
            (Memory.Page.Content.is_zero (Memory.Address_space.read s i))
        done);
    Alcotest.test_case "write then read" `Quick (fun () ->
        let ft = Memory.Frame_table.create (Sim.Ctx.create ()) in
        let s = Memory.Address_space.create_root ft ~name:"ram" ~pages:4 in
        let c = Memory.Page.Content.of_int 7 in
        ignore (Memory.Address_space.write s 2 c);
        Alcotest.(check bool) "read back" true
          (Memory.Page.Content.equal c (Memory.Address_space.read s 2)));
    Alcotest.test_case "window resolves into parent" `Quick (fun () ->
        let ft = Memory.Frame_table.create (Sim.Ctx.create ()) in
        let parent = Memory.Address_space.create_root ft ~name:"l1" ~pages:32 in
        let w = Memory.Address_space.window parent ~name:"l2" ~offset:8 ~pages:8 in
        let c = Memory.Page.Content.of_int 3 in
        ignore (Memory.Address_space.write w 0 c);
        Alcotest.(check bool) "parent sees it" true
          (Memory.Page.Content.equal c (Memory.Address_space.read parent 8));
        let root, idx = Memory.Address_space.resolve w 3 in
        Alcotest.(check bool) "root is parent" true (root == parent);
        Alcotest.(check int) "offset applied" 11 idx);
    Alcotest.test_case "nested window of window" `Quick (fun () ->
        let ft = Memory.Frame_table.create (Sim.Ctx.create ()) in
        let l1 = Memory.Address_space.create_root ft ~name:"l1" ~pages:64 in
        let l2 = Memory.Address_space.window l1 ~name:"l2" ~offset:16 ~pages:32 in
        let l3 = Memory.Address_space.window l2 ~name:"l3" ~offset:4 ~pages:8 in
        let c = Memory.Page.Content.of_int 5 in
        ignore (Memory.Address_space.write l3 1 c);
        Alcotest.(check bool) "l1 sees it at 21" true
          (Memory.Page.Content.equal c (Memory.Address_space.read l1 21)));
    Alcotest.test_case "window out of range rejected" `Quick (fun () ->
        let ft = Memory.Frame_table.create (Sim.Ctx.create ()) in
        let parent = Memory.Address_space.create_root ft ~name:"l1" ~pages:8 in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Memory.Address_space.window parent ~name:"w" ~offset:4 ~pages:8);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "write marks dirty along the chain" `Quick (fun () ->
        let ft = Memory.Frame_table.create (Sim.Ctx.create ()) in
        let l1 = Memory.Address_space.create_root ft ~name:"l1" ~pages:32 in
        let l2 = Memory.Address_space.window l1 ~name:"l2" ~offset:8 ~pages:8 in
        Memory.Dirty.clear (Memory.Address_space.dirty l1);
        ignore (Memory.Address_space.write l2 2 (Memory.Page.Content.of_int 1));
        Alcotest.(check bool) "l2 dirty at 2" true
          (Memory.Dirty.is_dirty (Memory.Address_space.dirty l2) 2);
        Alcotest.(check bool) "l1 dirty at 10" true
          (Memory.Dirty.is_dirty (Memory.Address_space.dirty l1) 10));
    Alcotest.test_case "write to shared frame is CoW" `Quick (fun () ->
        let ft = Memory.Frame_table.create (Sim.Ctx.create ()) in
        let a = Memory.Address_space.create_root ft ~name:"a" ~pages:2 in
        let b = Memory.Address_space.create_root ft ~name:"b" ~pages:2 in
        let c = Memory.Page.Content.of_int 4 in
        ignore (Memory.Address_space.write a 0 c);
        ignore (Memory.Address_space.write b 0 c);
        (* merge manually (what ksm does) *)
        Memory.Address_space.remap b 0 (Memory.Address_space.frame_at a 0);
        Alcotest.(check int) "shared after remap" 2
          (Memory.Frame_table.refcount ft (Memory.Address_space.frame_at a 0));
        let kind = Memory.Address_space.write b 0 (Memory.Page.Content.of_int 5) in
        Alcotest.(check bool) "cow break" true (kind = Memory.Address_space.Cow_break);
        Alcotest.(check bool) "a unaffected" true
          (Memory.Page.Content.equal c (Memory.Address_space.read a 0));
        Alcotest.(check bool) "frames diverged" true
          (Memory.Address_space.frame_at a 0 <> Memory.Address_space.frame_at b 0));
    Alcotest.test_case "remap refuses windows" `Quick (fun () ->
        let ft = Memory.Frame_table.create (Sim.Ctx.create ()) in
        let parent = Memory.Address_space.create_root ft ~name:"p" ~pages:8 in
        let w = Memory.Address_space.window parent ~name:"w" ~offset:0 ~pages:4 in
        Alcotest.(check bool) "raises" true
          (try
             Memory.Address_space.remap w 0 (Memory.Address_space.frame_at parent 5);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "load and contents round-trip" `Quick (fun () ->
        let ft = Memory.Frame_table.create (Sim.Ctx.create ()) in
        let s = Memory.Address_space.create_root ft ~name:"s" ~pages:8 in
        let data = Array.init 4 (fun i -> Memory.Page.Content.of_int (100 + i)) in
        Memory.Address_space.load s ~offset:2 data;
        let all = Memory.Address_space.contents s in
        Array.iteri
          (fun i c ->
            Alcotest.(check bool) "page matches" true (Memory.Page.Content.equal c all.(2 + i)))
          data);
  ]

(* A root of 16 distinct pages with a window over pages 4..11, a write
   watcher on each, every bitmap clean, and root page 5 (window page 1)
   remapped onto root page 6's frame so it is shared. Two calls build
   identical worlds, so one primitive can be checked against another. *)
let page_path_world () =
  let tel = Sim.Telemetry.create () in
  let ft = Memory.Frame_table.create (Sim.Ctx.create ~telemetry:tel ()) in
  let r = Memory.Address_space.create_root ft ~name:"r" ~pages:16 in
  let w = Memory.Address_space.window r ~name:"w" ~offset:4 ~pages:8 in
  let watch s =
    let d = Memory.Dirty.create (Memory.Address_space.pages s) in
    Memory.Address_space.watch_writes s d;
    d
  in
  let bitmaps =
    [ Memory.Address_space.dirty r; Memory.Address_space.dirty w; watch r; watch w ]
  in
  for i = 0 to 15 do
    ignore (Memory.Address_space.write r i (Memory.Page.Content.of_int i))
  done;
  Memory.Address_space.remap r 5 (Memory.Address_space.frame_at r 6);
  List.iter Memory.Dirty.clear bitmaps;
  let observe () =
    ( Array.map Memory.Page.Content.to_int64 (Memory.Address_space.contents r),
      List.map
        (fun d -> List.init (Memory.Dirty.length d) (Memory.Dirty.is_dirty d))
        bitmaps,
      Sim.Telemetry.value tel "memory_cow_breaks_total",
      (Memory.Frame_table.live_frames ft, Memory.Frame_table.shared_frames ft) )
  in
  (r, w, observe)

let primitive_tests =
  let same name (r1, w1, obs1) (r2, w2, obs2) primitive reference =
    let k1 = primitive r1 w1 and k2 = reference r2 w2 in
    Alcotest.(check bool) (name ^ ": write kind") true (k1 = k2);
    Alcotest.(check bool) (name ^ ": observable state") true (obs1 () = obs2 ())
  in
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  let open Memory.Address_space in
  [
    Alcotest.test_case "mutate and copy match read-then-write" `Quick (fun () ->
        List.iter
          (fun (name, primitive, reference) ->
            same name (page_path_world ()) (page_path_world ()) primitive reference)
          [
            ( "mutate, shared frame (CoW)",
              (fun _ w -> mutate w 1 ~salt:3),
              fun _ w -> write w 1 (Memory.Page.Content.mutate (read w 1) ~salt:3) );
            ( "mutate, private frame",
              (fun r _ -> mutate r 9 ~salt:0),
              fun r _ -> write r 9 (Memory.Page.Content.mutate (read r 9) ~salt:0) );
            ( "copy into a shared frame (CoW)",
              (fun r w -> copy ~src:r 14 ~dst:w 1),
              fun r w -> write w 1 (read r 14) );
            ( "copy into a private frame",
              (fun r w -> copy ~src:w 2 ~dst:r 12),
              fun r w -> write r 12 (read w 2) );
          ];
        (* the CoW cases really broke a shared frame *)
        let r, w, observe = page_path_world () in
        Alcotest.(check bool) "mutate breaks CoW" true (mutate w 1 ~salt:3 = Cow_break);
        ignore (copy ~src:r 14 ~dst:r 6);
        let _, _, breaks, _ = observe () in
        Alcotest.(check (option (float 0.))) "one break counted" (Some 1.) breaks);
    Alcotest.test_case "mutate and copy reject out-of-range pages" `Quick (fun () ->
        let r, w, _ = page_path_world () in
        Alcotest.(check bool) "mutate past a window" true (raises (fun () -> mutate w 8 ~salt:0));
        Alcotest.(check bool) "mutate below zero" true (raises (fun () -> mutate r (-1) ~salt:0));
        Alcotest.(check bool) "copy from past the source" true
          (raises (fun () -> copy ~src:w 8 ~dst:r 0));
        Alcotest.(check bool) "copy to past the destination" true
          (raises (fun () -> copy ~src:r 0 ~dst:w 8)));
  ]

let make_ksm_world ?(config = Memory.Ksm.fast_config) () =
  let ctx = Sim.Ctx.create () in
  let engine = Sim.Ctx.engine ctx in
  let ft = Memory.Frame_table.create ctx in
  let ksm = Memory.Ksm.create ~config ctx ft in
  (engine, ft, ksm)

let run_full_pass engine ksm n =
  Memory.Ksm.start ksm;
  let target = Memory.Ksm.full_scans ksm + n in
  let guard = ref 0 in
  while Memory.Ksm.full_scans ksm < target && !guard < 1_000_000 do
    ignore (Sim.Engine.run_for engine (Sim.Time.ms 10.));
    incr guard
  done;
  Memory.Ksm.stop ksm

let ksm_tests =
  [
    Alcotest.test_case "identical pages merge" `Quick (fun () ->
        let engine, ft, ksm = make_ksm_world () in
        let a = Memory.Address_space.create_root ft ~name:"a" ~pages:8 in
        let b = Memory.Address_space.create_root ft ~name:"b" ~pages:8 in
        let c = Memory.Page.Content.of_int 77 in
        ignore (Memory.Address_space.write a 1 c);
        ignore (Memory.Address_space.write b 5 c);
        Memory.Ksm.register ksm a;
        Memory.Ksm.register ksm b;
        run_full_pass engine ksm 2;
        Alcotest.(check int) "same frame" (Memory.Address_space.frame_at a 1)
          (Memory.Address_space.frame_at b 5);
        Alcotest.(check bool) "merged count positive" true (Memory.Ksm.pages_merged ksm > 0));
    Alcotest.test_case "different pages stay separate" `Quick (fun () ->
        let engine, ft, ksm = make_ksm_world () in
        let a = Memory.Address_space.create_root ft ~name:"a" ~pages:4 in
        let b = Memory.Address_space.create_root ft ~name:"b" ~pages:4 in
        ignore (Memory.Address_space.write a 0 (Memory.Page.Content.of_int 1));
        ignore (Memory.Address_space.write b 0 (Memory.Page.Content.of_int 2));
        Memory.Ksm.register ksm a;
        Memory.Ksm.register ksm b;
        run_full_pass engine ksm 2;
        Alcotest.(check bool) "frames differ" true
          (Memory.Address_space.frame_at a 0 <> Memory.Address_space.frame_at b 0));
    Alcotest.test_case "nested window pages merge with host pages" `Quick (fun () ->
        (* The CloudSkulk property: an L2 page (window into GuestX RAM)
           merges with an identical page the L0 detector loads. *)
        let engine, ft, ksm = make_ksm_world () in
        let guestx = Memory.Address_space.create_root ft ~name:"guestx" ~pages:64 in
        let l2 = Memory.Address_space.window guestx ~name:"l2" ~offset:32 ~pages:16 in
        let host_buf = Memory.Address_space.create_root ft ~name:"detector" ~pages:4 in
        let c = Memory.Page.Content.of_int 99 in
        ignore (Memory.Address_space.write l2 3 c);
        ignore (Memory.Address_space.write host_buf 0 c);
        Memory.Ksm.register ksm guestx;
        Memory.Ksm.register ksm host_buf;
        run_full_pass engine ksm 2;
        Alcotest.(check int) "merged across levels" (Memory.Address_space.frame_at l2 3)
          (Memory.Address_space.frame_at host_buf 0));
    Alcotest.test_case "registering a window is rejected" `Quick (fun () ->
        let _, ft, ksm = make_ksm_world () in
        let parent = Memory.Address_space.create_root ft ~name:"p" ~pages:8 in
        let w = Memory.Address_space.window parent ~name:"w" ~offset:0 ~pages:4 in
        Alcotest.(check bool) "raises" true
          (try
             Memory.Ksm.register ksm w;
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "CoW after merge restores divergence" `Quick (fun () ->
        let engine, ft, ksm = make_ksm_world () in
        let a = Memory.Address_space.create_root ft ~name:"a" ~pages:2 in
        let b = Memory.Address_space.create_root ft ~name:"b" ~pages:2 in
        let c = Memory.Page.Content.of_int 5 in
        ignore (Memory.Address_space.write a 0 c);
        ignore (Memory.Address_space.write b 0 c);
        Memory.Ksm.register ksm a;
        Memory.Ksm.register ksm b;
        run_full_pass engine ksm 2;
        let kind = Memory.Address_space.write b 0 (Memory.Page.Content.of_int 6) in
        Alcotest.(check bool) "cow" true (kind = Memory.Address_space.Cow_break);
        Alcotest.(check bool) "a keeps original" true
          (Memory.Page.Content.equal c (Memory.Address_space.read a 0)));
    Alcotest.test_case "re-merge after CoW on next passes" `Quick (fun () ->
        let engine, ft, ksm = make_ksm_world () in
        let a = Memory.Address_space.create_root ft ~name:"a" ~pages:2 in
        let b = Memory.Address_space.create_root ft ~name:"b" ~pages:2 in
        let c = Memory.Page.Content.of_int 5 in
        ignore (Memory.Address_space.write a 0 c);
        ignore (Memory.Address_space.write b 0 c);
        Memory.Ksm.register ksm a;
        Memory.Ksm.register ksm b;
        run_full_pass engine ksm 2;
        ignore (Memory.Address_space.write b 0 c);
        (* same content again *)
        run_full_pass engine ksm 2;
        Alcotest.(check int) "merged again" (Memory.Address_space.frame_at a 0)
          (Memory.Address_space.frame_at b 0));
    Alcotest.test_case "counters: pages_sharing reflects savings" `Quick (fun () ->
        let engine, ft, ksm = make_ksm_world () in
        let a = Memory.Address_space.create_root ft ~name:"a" ~pages:10 in
        let b = Memory.Address_space.create_root ft ~name:"b" ~pages:10 in
        let c = Memory.Page.Content.of_int 1 in
        for i = 0 to 9 do
          ignore (Memory.Address_space.write a i c);
          ignore (Memory.Address_space.write b i c)
        done;
        Memory.Ksm.register ksm a;
        Memory.Ksm.register ksm b;
        run_full_pass engine ksm 2;
        (* 20 identical pages collapse to 1 frame: 19 pages saved *)
        Alcotest.(check bool) "savings >= 19" true (Memory.Ksm.pages_sharing ksm >= 19));
    Alcotest.test_case "time_for_full_pass scales with population" `Quick (fun () ->
        let _, ft, ksm = make_ksm_world ~config:{ pages_to_scan = 10; sleep = Sim.Time.ms 1.; incremental = false } () in
        let a = Memory.Address_space.create_root ft ~name:"a" ~pages:100 in
        Memory.Ksm.register ksm a;
        Alcotest.(check int64) "10 wakeups" (Sim.Time.to_ns (Sim.Time.ms 10.))
          (Sim.Time.to_ns (Memory.Ksm.time_for_full_pass ksm)));
    Alcotest.test_case "unregister mid-pass keeps the cursor position" `Quick (fun () ->
        (* Three 4-page spaces; one scan_once of 6 pages stops mid-b.
           Unregistering c (not yet scanned) must not restart the pass:
           the next 6 pages finish it, and the candidate recorded for a0
           earlier in the pass still merges with b2. *)
        let _, ft, ksm =
          make_ksm_world ~config:{ pages_to_scan = 6; sleep = Sim.Time.ms 1.; incremental = false } ()
        in
        let mk name base =
          let s = Memory.Address_space.create_root ft ~name ~pages:4 in
          for i = 0 to 3 do
            ignore (Memory.Address_space.write s i (Memory.Page.Content.of_int (base + i)))
          done;
          Memory.Ksm.register ksm s;
          s
        in
        let a = mk "a" 100 and b = mk "b" 200 and c = mk "c" 300 in
        let x = Memory.Page.Content.of_int 7777 in
        ignore (Memory.Address_space.write a 0 x);
        ignore (Memory.Address_space.write b 2 x);
        Memory.Ksm.scan_once ksm;
        (* cursor is at b, page 2 *)
        Memory.Ksm.unregister ksm c;
        Memory.Ksm.scan_once ksm;
        Alcotest.(check int) "exactly one full pass" 1 (Memory.Ksm.full_scans ksm);
        Alcotest.(check int) "a0/b2 merged" (Memory.Address_space.frame_at a 0)
          (Memory.Address_space.frame_at b 2);
        Alcotest.(check bool) "merge counted" true (Memory.Ksm.pages_merged ksm > 0));
    Alcotest.test_case "unregister of the space under the cursor resumes at its successor" `Quick
      (fun () ->
        let _, ft, ksm =
          make_ksm_world ~config:{ pages_to_scan = 6; sleep = Sim.Time.ms 1.; incremental = false } ()
        in
        let mk name base =
          let s = Memory.Address_space.create_root ft ~name ~pages:4 in
          for i = 0 to 3 do
            ignore (Memory.Address_space.write s i (Memory.Page.Content.of_int (base + i)))
          done;
          Memory.Ksm.register ksm s;
          s
        in
        let a = mk "a" 100 and b = mk "b" 200 and c = mk "c" 300 in
        let x = Memory.Page.Content.of_int 8888 in
        ignore (Memory.Address_space.write a 0 x);
        ignore (Memory.Address_space.write c 0 x);
        Memory.Ksm.scan_once ksm;
        (* cursor is at b, page 2; removing b moves it to the start of c *)
        Memory.Ksm.unregister ksm b;
        Memory.Ksm.scan_once ksm;
        Alcotest.(check int) "exactly one full pass" 1 (Memory.Ksm.full_scans ksm);
        Alcotest.(check int) "a0/c0 merged" (Memory.Address_space.frame_at a 0)
          (Memory.Address_space.frame_at c 0));
    Alcotest.test_case "a space registered mid-pass is scanned before the pass completes" `Quick
      (fun () ->
        let _, ft, ksm =
          make_ksm_world ~config:{ pages_to_scan = 2; sleep = Sim.Time.ms 1.; incremental = false } ()
        in
        let a = Memory.Address_space.create_root ft ~name:"a" ~pages:4 in
        for i = 0 to 3 do
          ignore (Memory.Address_space.write a i (Memory.Page.Content.of_int (100 + i)))
        done;
        Memory.Ksm.register ksm a;
        let x = Memory.Page.Content.of_int 9999 in
        ignore (Memory.Address_space.write a 0 x);
        Memory.Ksm.scan_once ksm;
        (* mid-pass: a0 is already in the unstable tree *)
        let b = Memory.Address_space.create_root ft ~name:"b" ~pages:2 in
        ignore (Memory.Address_space.write b 0 (Memory.Page.Content.of_int 200));
        ignore (Memory.Address_space.write b 1 x);
        Memory.Ksm.register ksm b;
        Memory.Ksm.scan_once ksm;
        Memory.Ksm.scan_once ksm;
        Alcotest.(check int) "pass covered the late space" 1 (Memory.Ksm.full_scans ksm);
        Alcotest.(check int) "a0/b1 merged" (Memory.Address_space.frame_at a 0)
          (Memory.Address_space.frame_at b 1));
    Alcotest.test_case "a CoW write to a settled page makes the next wakeup visit it" `Quick
      (fun () ->
        (* pages_to_scan = population, so each scan_once is one full
           pass. Once merged, every page is settled and a wakeup steps
           over all of them. Rewriting b3 with the content it already
           holds breaks CoW onto a private frame; a wakeup that stepped
           over b3 would leave it there, one that visits it merges it
           back into the stable frame. *)
        let _, ft, ksm =
          make_ksm_world ~config:{ pages_to_scan = 16; sleep = Sim.Time.ms 1.; incremental = false } ()
        in
        let a = Memory.Address_space.create_root ft ~name:"a" ~pages:8 in
        let b = Memory.Address_space.create_root ft ~name:"b" ~pages:8 in
        for i = 0 to 7 do
          ignore (Memory.Address_space.write a i (Memory.Page.Content.of_int (40 + i)));
          ignore (Memory.Address_space.write b i (Memory.Page.Content.of_int (40 + i)))
        done;
        Memory.Ksm.register ksm a;
        Memory.Ksm.register ksm b;
        let ok () = match Memory.Ksm.check_invariants ksm with Ok () -> () | Error e -> Alcotest.fail e in
        Memory.Ksm.scan_once ksm;
        Memory.Ksm.scan_once ksm;
        ok ();
        Alcotest.(check int) "all eight merged" 8 (Memory.Ksm.pages_merged ksm);
        let avoided = Memory.Ksm.pages_rescan_avoided ksm in
        Memory.Ksm.scan_once ksm;
        Alcotest.(check int) "a settled pass reuses all 16 checksums" (avoided + 16)
          (Memory.Ksm.pages_rescan_avoided ksm);
        let stable = Memory.Address_space.frame_at a 3 in
        let kind = Memory.Address_space.write b 3 (Memory.Page.Content.of_int 43) in
        Alcotest.(check bool) "cow" true (kind = Memory.Address_space.Cow_break);
        Alcotest.(check bool) "b3 left the stable frame" true
          (Memory.Address_space.frame_at b 3 <> stable);
        ok ();
        Memory.Ksm.scan_once ksm;
        ok ();
        Alcotest.(check int) "b3 merged back" stable (Memory.Address_space.frame_at b 3);
        Alcotest.(check int) "one more merge" 9 (Memory.Ksm.pages_merged ksm);
        Alcotest.(check int) "b3 rehashed, the other 15 reused" (avoided + 16 + 15)
          (Memory.Ksm.pages_rescan_avoided ksm));
    Alcotest.test_case "churning pages stay out of the unstable tree until quiescent" `Quick
      (fun () ->
        (* pages_to_scan = population, so each scan_once is one full
           pass. Pass 2 sees a0 and b0 holding identical new content,
           but both changed since pass 1, so the checksum gate keeps
           them out of the unstable tree: no merge until they hold
           still for a pass (pass 3). *)
        let _, ft, ksm =
          make_ksm_world ~config:{ pages_to_scan = 4; sleep = Sim.Time.ms 1.; incremental = false } ()
        in
        let a = Memory.Address_space.create_root ft ~name:"a" ~pages:2 in
        let b = Memory.Address_space.create_root ft ~name:"b" ~pages:2 in
        ignore (Memory.Address_space.write a 0 (Memory.Page.Content.of_int 10));
        ignore (Memory.Address_space.write a 1 (Memory.Page.Content.of_int 11));
        ignore (Memory.Address_space.write b 0 (Memory.Page.Content.of_int 20));
        ignore (Memory.Address_space.write b 1 (Memory.Page.Content.of_int 21));
        Memory.Ksm.register ksm a;
        Memory.Ksm.register ksm b;
        Memory.Ksm.scan_once ksm;
        Alcotest.(check int) "no skips on first sight" 0 (Memory.Ksm.pages_volatile_skipped ksm);
        let y = Memory.Page.Content.of_int 5555 in
        ignore (Memory.Address_space.write a 0 y);
        ignore (Memory.Address_space.write b 0 y);
        Memory.Ksm.scan_once ksm;
        Alcotest.(check int) "both churners skipped" 2 (Memory.Ksm.pages_volatile_skipped ksm);
        Alcotest.(check int) "no merge while volatile" 0 (Memory.Ksm.pages_merged ksm);
        Alcotest.(check bool) "frames still distinct" true
          (Memory.Address_space.frame_at a 0 <> Memory.Address_space.frame_at b 0);
        Memory.Ksm.scan_once ksm;
        Alcotest.(check int) "quiescent pages merge" (Memory.Address_space.frame_at a 0)
          (Memory.Address_space.frame_at b 0);
        Alcotest.(check int) "no further skips" 2 (Memory.Ksm.pages_volatile_skipped ksm));
  ]

(* ---- write observers and the incremental rescan ---- *)

let watcher_tests =
  let open Memory.Address_space in
  [
    Alcotest.test_case "watch_writes sees direct and windowed writes" `Quick (fun () ->
        let ft = Memory.Frame_table.create (Sim.Ctx.create ()) in
        let s = create_root ft ~name:"ram" ~pages:16 in
        let w = window s ~name:"w" ~offset:4 ~pages:8 in
        let obs = Memory.Dirty.create 16 in
        watch_writes s obs;
        ignore (write s 1 (Memory.Page.Content.of_int 1));
        ignore (write w 2 (Memory.Page.Content.of_int 2));
        Alcotest.(check bool) "direct write" true (Memory.Dirty.is_dirty obs 1);
        Alcotest.(check bool) "windowed write at parent index" true
          (Memory.Dirty.is_dirty obs 6);
        Alcotest.(check int) "nothing else" 2 (Memory.Dirty.dirty_count obs);
        unwatch_writes s obs;
        ignore (write s 3 (Memory.Page.Content.of_int 3));
        Alcotest.(check bool) "unwatched" false (Memory.Dirty.is_dirty obs 3));
    Alcotest.test_case "duplicate registration is a no-op; bad length raises" `Quick
      (fun () ->
        let ft = Memory.Frame_table.create (Sim.Ctx.create ()) in
        let s = create_root ft ~name:"ram" ~pages:8 in
        let obs = Memory.Dirty.create 8 in
        watch_writes s obs;
        watch_writes s obs;
        ignore (write s 0 (Memory.Page.Content.of_int 9));
        Alcotest.(check int) "counted once" 1 (Memory.Dirty.dirty_count obs);
        Alcotest.(check bool) "length mismatch raises" true
          (try
             watch_writes s (Memory.Dirty.create 9);
             false
           with Invalid_argument _ -> true));
  ]

let incremental_tests =
  [
    Alcotest.test_case "full scan reuses cached checksums for clean pages" `Quick (fun () ->
        let _, ft, ksm =
          make_ksm_world
            ~config:{ pages_to_scan = 32; sleep = Sim.Time.ms 1.; incremental = false }
            ()
        in
        let s = Memory.Address_space.create_root ft ~name:"s" ~pages:32 in
        for i = 0 to 31 do
          ignore (Memory.Address_space.write s i (Memory.Page.Content.of_int (100 + i)))
        done;
        Memory.Ksm.register ksm s;
        Memory.Ksm.scan_once ksm;
        Alcotest.(check int) "first pass hashes everything" 0
          (Memory.Ksm.pages_rescan_avoided ksm);
        Memory.Ksm.scan_once ksm;
        Alcotest.(check int) "second pass reuses all 32" 32
          (Memory.Ksm.pages_rescan_avoided ksm);
        for i = 0 to 4 do
          ignore (Memory.Address_space.write s i (Memory.Page.Content.of_int (200 + i)))
        done;
        Memory.Ksm.scan_once ksm;
        Alcotest.(check int) "third pass rehashes only the 5 written" (32 + 27)
          (Memory.Ksm.pages_rescan_avoided ksm));
    Alcotest.test_case "incremental mode merges what the full scan merges" `Quick (fun () ->
        let run incremental =
          let _, ft, ksm =
            make_ksm_world
              ~config:{ pages_to_scan = 64; sleep = Sim.Time.ms 1.; incremental }
              ()
          in
          let a = Memory.Address_space.create_root ft ~name:"a" ~pages:8 in
          let b = Memory.Address_space.create_root ft ~name:"b" ~pages:8 in
          for i = 0 to 3 do
            ignore (Memory.Address_space.write a i (Memory.Page.Content.of_int (7 + i)));
            ignore (Memory.Address_space.write b (7 - i) (Memory.Page.Content.of_int (7 + i)))
          done;
          Memory.Ksm.register ksm a;
          Memory.Ksm.register ksm b;
          for _ = 1 to 4 do
            Memory.Ksm.scan_once ksm
          done;
          (match Memory.Ksm.check_invariants ksm with
          | Ok () -> ()
          | Error e -> Alcotest.fail e);
          (Memory.Ksm.pages_merged ksm, Memory.Ksm.pages_sharing ksm)
        in
        let fm, fs = run false and im, is_ = run true in
        Alcotest.(check bool) "full mode merges" true (fm > 0);
        Alcotest.(check int) "same merges" fm im;
        Alcotest.(check int) "same sharing" fs is_);
    Alcotest.test_case "incremental steady state visits only dirtied pages" `Quick (fun () ->
        (* one space, and four: with several spaces an idle wakeup hops
           every clean space on its dirty count and leaves the cursor
           on space 1, so the later write lands behind it *)
        List.iter
          (fun n_spaces ->
            let telemetry = Sim.Telemetry.create () in
            let ctx = Sim.Ctx.create ~telemetry () in
            let ft = Memory.Frame_table.create ctx in
            let ksm =
              Memory.Ksm.create
                ~config:{ pages_to_scan = 4096; sleep = Sim.Time.ms 1.; incremental = true }
                ctx ft
            in
            let spaces =
              List.init n_spaces (fun k ->
                  let s =
                    Memory.Address_space.create_root ft ~name:(Printf.sprintf "s%d" k) ~pages:64
                  in
                  for i = 0 to 63 do
                    ignore
                      (Memory.Address_space.write s i
                         (Memory.Page.Content.of_int ((1000 * (k + 1)) + i)))
                  done;
                  Memory.Ksm.register ksm s;
                  s)
            in
            let s = List.hd spaces in
            let all = 64 * n_spaces in
            let label what = Printf.sprintf "%d spaces: %s" n_spaces what in
            let scanned () =
              match Sim.Telemetry.value telemetry "ksm_pages_scanned_total" with
              | Some v -> int_of_float v
              | None -> Alcotest.fail "no ksm_pages_scanned_total series"
            in
            Memory.Ksm.scan_once ksm;
            Alcotest.(check int) (label "first sweep visits all") all (scanned ());
            Alcotest.(check int) (label "one pass") 1 (Memory.Ksm.full_scans ksm);
            Memory.Ksm.scan_once ksm;
            Alcotest.(check int) (label "idle sweep visits nothing") all (scanned ());
            Alcotest.(check int) (label "idle sweep is not a pass") 1 (Memory.Ksm.full_scans ksm);
            for i = 10 to 12 do
              ignore (Memory.Address_space.write s i (Memory.Page.Content.of_int (2000 + i)))
            done;
            Memory.Ksm.scan_once ksm;
            (* each dirtied page is seen twice: once as a volatile churner
               (which re-arms it) and once to confirm it has settled - still
               O(dirtied), never O(table) *)
            Alcotest.(check int)
              (label "steady state visits only the 3 dirtied")
              (all + (2 * 3))
              (scanned ());
            Alcotest.(check int) (label "one pass per lap that visited") 3
              (Memory.Ksm.full_scans ksm);
            Memory.Ksm.scan_once ksm;
            Alcotest.(check int) (label "then goes quiet again") (all + (2 * 3)) (scanned ());
            Alcotest.(check int) (label "quiet is not a pass") 3 (Memory.Ksm.full_scans ksm))
          [ 1; 4 ]);
    Alcotest.test_case "incremental scan finds duplicates written after start" `Quick
      (fun () ->
        let _, ft, ksm =
          make_ksm_world
            ~config:{ pages_to_scan = 64; sleep = Sim.Time.ms 1.; incremental = true }
            ()
        in
        let a = Memory.Address_space.create_root ft ~name:"a" ~pages:8 in
        let b = Memory.Address_space.create_root ft ~name:"b" ~pages:8 in
        for i = 0 to 7 do
          ignore (Memory.Address_space.write a i (Memory.Page.Content.of_int (30 + i)));
          ignore (Memory.Address_space.write b i (Memory.Page.Content.of_int (50 + i)))
        done;
        Memory.Ksm.register ksm a;
        Memory.Ksm.register ksm b;
        Memory.Ksm.scan_once ksm;
        Alcotest.(check int) "nothing to merge yet" 0 (Memory.Ksm.pages_merged ksm);
        let c = Memory.Page.Content.of_int 424242 in
        ignore (Memory.Address_space.write a 2 c);
        ignore (Memory.Address_space.write b 5 c);
        (* the duplicate must hold still for a pass (checksum gate),
           then merge on the next one - all without full rescans *)
        Memory.Ksm.scan_once ksm;
        Memory.Ksm.scan_once ksm;
        Memory.Ksm.scan_once ksm;
        Alcotest.(check int) "late duplicate merged" (Memory.Address_space.frame_at a 2)
          (Memory.Address_space.frame_at b 5);
        match Memory.Ksm.check_invariants ksm with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
  ]

let file_tests =
  [
    Alcotest.test_case "generated file pages are distinct" `Quick (fun () ->
        let f = Memory.File_image.generate (rng ()) ~name:"f" ~pages:100 in
        Alcotest.(check bool) "distinct" true (Memory.File_image.all_pages_distinct f));
    Alcotest.test_case "mutate_all changes every page" `Quick (fun () ->
        let f = Memory.File_image.generate (rng ()) ~name:"f" ~pages:20 in
        let v2 = Memory.File_image.mutate_all f ~salt:1 in
        for i = 0 to 19 do
          Alcotest.(check bool) "page differs" false
            (Memory.Page.Content.equal (Memory.File_image.content f i)
               (Memory.File_image.content v2 i))
        done;
        Alcotest.(check string) "renamed" "f-v2" (Memory.File_image.name v2));
    Alcotest.test_case "load_into and matches" `Quick (fun () ->
        let ft = Memory.Frame_table.create (Sim.Ctx.create ()) in
        let s = Memory.Address_space.create_root ft ~name:"s" ~pages:32 in
        let f = Memory.File_image.generate (rng ()) ~name:"f" ~pages:8 in
        Memory.File_image.load_into f s ~offset:4;
        Alcotest.(check bool) "matches at 4" true (Memory.File_image.matches f s ~offset:4);
        Alcotest.(check bool) "not at 5" false (Memory.File_image.matches f s ~offset:5));
    Alcotest.test_case "bytes" `Quick (fun () ->
        let f = Memory.File_image.generate (rng ()) ~name:"f" ~pages:100 in
        Alcotest.(check int) "400KB, as the paper sizes File-A" (400 * 1024)
          (Memory.File_image.bytes f));
  ]

(* the default write timings without jitter *)
let noiseless = { Memory.Mem_params.default with noise_rsd = 0. }

let probe_tests =
  [
    Alcotest.test_case "private pages probe fast, merged slow" `Quick (fun () ->
        let ft = Memory.Frame_table.create (Sim.Ctx.create ()) in
        let a = Memory.Address_space.create_root ft ~name:"a" ~pages:10 in
        let b = Memory.Address_space.create_root ft ~name:"b" ~pages:10 in
        for i = 0 to 9 do
          let c = Memory.Page.Content.of_int i in
          ignore (Memory.Address_space.write a i c);
          ignore (Memory.Address_space.write b i c);
          Memory.Address_space.remap b i (Memory.Address_space.frame_at a i)
        done;
        let r = Sim.Rng.create 1 in
        let merged =
          Memory.Write_probe.probe ~params:noiseless ~rng:r b ~offset:0
            ~pages:10
        in
        Alcotest.(check int) "all cow" 10 merged.Memory.Write_probe.cow_breaks;
        let again =
          Memory.Write_probe.probe ~params:noiseless ~rng:r b ~offset:0
            ~pages:10
        in
        Alcotest.(check int) "now private" 0 again.Memory.Write_probe.cow_breaks;
        Alcotest.(check bool) "merged slower" true
          Sim.Time.(
            Memory.Write_probe.mean_cost merged > Memory.Write_probe.mean_cost again));
    Alcotest.test_case "probe leaves no identical pages behind" `Quick (fun () ->
        let ft = Memory.Frame_table.create (Sim.Ctx.create ()) in
        let s = Memory.Address_space.create_root ft ~name:"s" ~pages:6 in
        let r = Sim.Rng.create 1 in
        ignore (Memory.Write_probe.probe ~rng:r s ~offset:0 ~pages:6);
        let seen = Hashtbl.create 8 in
        let dup = ref false in
        for i = 0 to 5 do
          let c = Memory.Address_space.read s i in
          let key = Memory.Page.Content.to_int64 c in
          if Hashtbl.mem seen key then dup := true;
          Hashtbl.replace seen key ()
        done;
        Alcotest.(check bool) "no duplicates" false !dup);
    Alcotest.test_case "noiseless costs match parameters" `Quick (fun () ->
        let ft = Memory.Frame_table.create (Sim.Ctx.create ()) in
        let s = Memory.Address_space.create_root ft ~name:"s" ~pages:4 in
        let r = Sim.Rng.create 1 in
        let probe =
          Memory.Write_probe.probe ~params:noiseless ~rng:r s ~offset:0
            ~pages:4
        in
        Array.iter
          (fun ns -> Alcotest.(check (float 1.)) "400ns" 400. ns)
          (Memory.Write_probe.costs_ns probe));
    Alcotest.test_case "fraction_cow" `Quick (fun () ->
        let ft = Memory.Frame_table.create (Sim.Ctx.create ()) in
        let a = Memory.Address_space.create_root ft ~name:"a" ~pages:4 in
        let b = Memory.Address_space.create_root ft ~name:"b" ~pages:4 in
        let c = Memory.Page.Content.of_int 1 in
        ignore (Memory.Address_space.write a 0 c);
        ignore (Memory.Address_space.write b 0 c);
        Memory.Address_space.remap b 0 (Memory.Address_space.frame_at a 0);
        let r = Sim.Rng.create 1 in
        let probe = Memory.Write_probe.probe ~rng:r b ~offset:0 ~pages:4 in
        Alcotest.(check (float 1e-9)) "1 of 4" 0.25 (Memory.Write_probe.fraction_cow probe));
  ]

(* A root of 48 pages, a window over its pages 8..39 and a window over
   that window's pages 4..19 (root 12..27), each with a write watcher,
   driven by random writes, mutates, copies, remaps and dirty-bitmap
   clears. The model is flat: one content per root page, one sharing
   group per root page (pages with equal groups share a frame) and one
   bool per bit of each bitmap. A write to space [k] lands at root index
   [base k + i] and marks space [k] and every ancestor at its own
   index. *)
let flat_window_model seed =
  let bases = [| 0; 8; 12 |] and sizes = [| 48; 32; 16 |] in
  let tel = Sim.Telemetry.create () in
  let ft = Memory.Frame_table.create (Sim.Ctx.create ~telemetry:tel ()) in
  let root = Memory.Address_space.create_root ft ~name:"r" ~pages:48 in
  let w = Memory.Address_space.window root ~name:"w" ~offset:8 ~pages:32 in
  let ww = Memory.Address_space.window w ~name:"ww" ~offset:4 ~pages:16 in
  let spaces = [| root; w; ww |] in
  let watchers =
    Array.map
      (fun s ->
        let d = Memory.Dirty.create (Memory.Address_space.pages s) in
        Memory.Address_space.watch_writes s d;
        d)
      spaces
  in
  let content = Array.make 48 Memory.Page.Content.zero in
  let group = Array.init 48 Fun.id in
  let next_group = ref 48 in
  let breaks = ref 0 in
  let dirty = Array.map (fun n -> Array.make n false) sizes in
  let watched = Array.map (fun n -> Array.make n false) sizes in
  let store k i c =
    let ri = bases.(k) + i in
    let g = group.(ri) in
    if Array.fold_left (fun n g' -> if g' = g then n + 1 else n) 0 group > 1 then begin
      incr breaks;
      group.(ri) <- !next_group;
      incr next_group
    end;
    content.(ri) <- c;
    for a = 0 to k do
      dirty.(a).(ri - bases.(a)) <- true;
      watched.(a).(ri - bases.(a)) <- true
    done
  in
  let r = Sim.Rng.create seed in
  let page k = Sim.Rng.int r sizes.(k) in
  let failure = ref None in
  let fail fmt = Printf.ksprintf (fun m -> if !failure = None then failure := Some m) fmt in
  let check step =
    let module A = Memory.Address_space in
    Array.iteri
      (fun k s ->
        for i = 0 to sizes.(k) - 1 do
          let ri = bases.(k) + i in
          if not (Memory.Page.Content.equal (A.read s i) content.(ri)) then
            fail "step %d: %s[%d] content" step (A.name s) i;
          if Memory.Dirty.is_dirty (A.dirty s) i <> dirty.(k).(i) then
            fail "step %d: %s[%d] dirty bit" step (A.name s) i;
          if Memory.Dirty.is_dirty watchers.(k) i <> watched.(k).(i) then
            fail "step %d: %s[%d] watcher bit" step (A.name s) i;
          let rs, rj = A.resolve s i in
          if not (rs == root && rj = ri) then fail "step %d: resolve %s %d" step (A.name s) i
        done;
        match A.check_invariants s with Ok () -> () | Error e -> fail "step %d: %s" step e)
      spaces;
    let counted = Option.value ~default:0. (Sim.Telemetry.value tel "memory_cow_breaks_total") in
    if int_of_float counted <> !breaks then
      fail "step %d: %.0f cow breaks, model %d" step counted !breaks
  in
  for step = 1 to 300 do
    let k = Sim.Rng.int r 3 in
    (match Sim.Rng.int r 5 with
    | 0 ->
      let i = page k and c = Memory.Page.Content.of_int (Sim.Rng.int r 6) in
      ignore (Memory.Address_space.write spaces.(k) i c);
      store k i c
    | 1 ->
      let i = page k and salt = Sim.Rng.int r 4 in
      ignore (Memory.Address_space.mutate spaces.(k) i ~salt);
      store k i (Memory.Page.Content.mutate content.(bases.(k) + i) ~salt)
    | 2 ->
      let k' = Sim.Rng.int r 3 in
      let i = page k and j = page k' in
      let c = content.(bases.(k) + i) in
      ignore (Memory.Address_space.copy ~src:spaces.(k) i ~dst:spaces.(k') j);
      store k' j c
    | 3 ->
      let i = page 0 and j = page 0 in
      Memory.Address_space.remap root i (Memory.Address_space.frame_at root j);
      content.(i) <- content.(j);
      group.(i) <- group.(j)
    | _ ->
      Memory.Dirty.clear (Memory.Address_space.dirty spaces.(k));
      Array.fill dirty.(k) 0 sizes.(k) false);
    check step
  done;
  match !failure with
  | None -> true
  | Some m -> QCheck.Test.fail_reportf "seed %d: %s" seed m

let mem_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"flat windows agree with a flat-array model" ~count:100
         QCheck.(small_int)
         flat_window_model);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"dirty bitset agrees with a naive bool-array model under random interleavings"
         ~count:100
         QCheck.(pair small_int (int_range 1 130))
         (fun (seed, n) ->
           (* Drive the word-skipping bitset and a bool array through the
              same random set/clear/drain/test_and_clear/next_dirty_from/
              collect schedule and demand they never disagree. Lengths
              around the 32-bit word boundary are the interesting ones;
              [n] ranges across several words. [dirty_count] is checked
              after every step: KSM's incremental sweep skips a space on
              [dirty_count = 0] alone, which is exact only while the
              count is zero precisely when no bit is set. A second
              bitmap [u] with its own model is the [unless] side of
              [run_set_clean], the full KSM sweep's step over settled
              pages. *)
           let open Memory.Dirty in
           let d = create n in
           let scratch = create n in
           let model = Array.make n false in
           let u = create n in
           let u_model = Array.make n false in
           let r = Sim.Rng.create seed in
           let agree () =
             dirty_count d = Array.fold_left (fun a b -> if b then a + 1 else a) 0 model
             && (let ok = ref true in
                 for i = 0 to n - 1 do
                   if is_dirty d i <> model.(i) then ok := false
                 done;
                 !ok)
             && List.rev (fold_dirty d (fun acc i -> i :: acc) [])
                = List.filter (fun i -> model.(i)) (List.init n Fun.id)
           in
           let ok = ref true in
           for _ = 1 to 300 do
             (match Sim.Rng.int r 9 with
             | 0 ->
               let i = Sim.Rng.int r n in
               set d i;
               model.(i) <- true
             | 7 ->
               let i = Sim.Rng.int r n in
               if Sim.Rng.bool r then begin
                 set u i;
                 u_model.(i) <- true
               end
               else begin
                 ignore (test_and_clear u i);
                 u_model.(i) <- false
               end
             | 8 ->
               (* any start in [0, n], and limits below, at and past the
                  remaining length; half the time [d] is first set over
                  a stretch that can span whole words *)
               let from = Sim.Rng.int r (n + 1) and limit = Sim.Rng.int r (n + 2) in
               if Sim.Rng.bool r then
                 for i = from to min (n - 1) (from + Sim.Rng.int r 70) do
                   set d i;
                   model.(i) <- true
                 done;
               let rec run i =
                 if i >= n || i - from >= limit || (not model.(i)) || u_model.(i) then i - from
                 else run (i + 1)
               in
               if run_set_clean d ~unless:u from ~limit <> run from then ok := false
             | 1 ->
               clear d;
               Array.fill model 0 n false
             | 2 ->
               (* drain moves the set into scratch and clears the source;
                  scratch's count and bits must be exactly the moved set *)
               drain d ~into:scratch;
               let moved = List.filter (fun i -> model.(i)) (List.init n Fun.id) in
               if
                 dirty_count scratch <> List.length moved
                 || List.rev (fold_dirty scratch (fun acc i -> i :: acc) []) <> moved
                 || List.exists (fun i -> is_dirty scratch i <> model.(i)) (List.init n Fun.id)
               then ok := false;
               Array.fill model 0 n false
             | 3 ->
               let i = Sim.Rng.int r n in
               if test_and_clear d i <> model.(i) then ok := false;
               model.(i) <- false
             | 4 ->
               (* any start in [0, n], [n] itself included *)
               let from = Sim.Rng.int r (n + 1) in
               let rec first i = if i >= n then None else if model.(i) then Some i else first (i + 1) in
               if next_dirty_from d from <> first from then ok := false
             | 5 ->
               let collected = collect_and_clear d in
               let expected = List.filter (fun i -> model.(i)) (List.init n Fun.id) in
               Array.fill model 0 n false;
               if collected <> expected then ok := false
             | _ ->
               let i = Sim.Rng.int r n in
               if is_dirty d i <> model.(i) then ok := false);
             if not (agree ()) then ok := false
           done;
           !ok));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"ksm tree invariants hold under random register/write/unregister sequences"
         ~count:40
         QCheck.(small_int)
         (fun seed ->
           let ctx = Sim.Ctx.create ~seed () in
           let ft = Memory.Frame_table.create ctx in
           let ksm = Memory.Ksm.create ~config:Memory.Ksm.fast_config ctx ft in
           let r = Sim.Rng.create seed in
           let next_space = ref 0 in
           let registered = ref [] in
           let fresh_space () =
             let s =
               Memory.Address_space.create_root ft
                 ~name:(Printf.sprintf "s%d" !next_space)
                 ~pages:24
             in
             incr next_space;
             (* a small content alphabet so cross-space duplicates are
                common and merges actually happen *)
             for i = 0 to 23 do
               ignore
                 (Memory.Address_space.write s i (Memory.Page.Content.of_int (Sim.Rng.int r 6)))
             done;
             s
           in
           registered := [ fresh_space (); fresh_space () ];
           List.iter (Memory.Ksm.register ksm) !registered;
           let ok = ref true in
           let volatile_floor = ref 0 in
           let check () =
             (match Memory.Ksm.check_invariants ksm with
             | Ok () -> ()
             | Error e ->
               QCheck.Test.fail_reportf "invariant violated (seed %d): %s" seed e);
             (* checksum gate monotonicity: the volatile-skip counter
                never goes backwards *)
             let v = Memory.Ksm.pages_volatile_skipped ksm in
             if v < !volatile_floor then ok := false;
             volatile_floor := v
           in
           for _ = 1 to 120 do
             (match Sim.Rng.int r 6 with
             | 0 ->
               let s = fresh_space () in
               Memory.Ksm.register ksm s;
               registered := s :: !registered
             | 1 -> (
               match !registered with
               | [] -> ()
               | s :: rest ->
                 Memory.Ksm.unregister ksm s;
                 registered := rest)
             | 2 | 3 -> (
               (* random writes churn pages between scans: the checksum
                  gate's food *)
               match !registered with
               | [] -> ()
               | spaces ->
                 let s = List.nth spaces (Sim.Rng.int r (List.length spaces)) in
                 let i = Sim.Rng.int r 24 in
                 ignore
                   (Memory.Address_space.write s i
                      (Memory.Page.Content.of_int (Sim.Rng.int r 6))))
             | _ -> Memory.Ksm.scan_once ksm);
             check ()
           done;
           (* a few full passes at the end settle the merge state, and the
              invariants must survive that too *)
           for _ = 1 to 20 do
             Memory.Ksm.scan_once ksm;
             check ()
           done;
           !ok));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"one k-page full-sweep wakeup leaves what k one-page wakeups leave" ~count:20
         QCheck.(pair small_int (int_range 2 100))
         (fun (seed, k) ->
           (* Two worlds run one random register/unregister/write/scan
              schedule. On each scan step [bulk] wakes once with a
              budget of [k] pages and [single] wakes [k] times with a
              budget of one, so only [bulk] steps over runs of settled
              pages longer than one. Space sizes straddle the 32-page
              bitmap word, and [k] reaches past whole spaces and whole
              passes, so runs cross word, slot and pass boundaries. A
              four-content alphabet makes most pages merge and settle. *)
           let world pages_to_scan =
             let telemetry = Sim.Telemetry.create () in
             let ctx = Sim.Ctx.create ~seed ~telemetry () in
             let ft = Memory.Frame_table.create ctx in
             let ksm =
               Memory.Ksm.create
                 ~config:{ pages_to_scan; sleep = Sim.Time.ms 1.; incremental = false }
                 ctx ft
             in
             (telemetry, ft, ksm)
           in
           let ((tb, _, bulk) as wb) = world k and ((ts, _, single) as ws) = world 1 in
           let r = Sim.Rng.create seed in
           (* registered spaces, newest first, as (bulk's, single's) *)
           let registered = ref [] in
           let next = ref 0 in
           let fail fmt = Printf.ksprintf (fun m -> QCheck.Test.fail_reportf "seed %d, k %d: %s" seed k m) fmt in
           let check_world (_, ft, ksm) =
             (match Memory.Ksm.check_invariants ksm with Ok () -> () | Error e -> fail "%s" e);
             match Memory.Frame_table.check_invariants ft with Ok () -> () | Error e -> fail "%s" e
           in
           let scanned telemetry =
             Option.value ~default:0. (Sim.Telemetry.value telemetry "ksm_pages_scanned_total")
           in
           let compare () =
             List.iter
               (fun (sb, ss) ->
                 for i = 0 to Memory.Address_space.pages sb - 1 do
                   if Memory.Address_space.frame_at sb i <> Memory.Address_space.frame_at ss i then
                     fail "%s[%d] on frame %d vs %d" (Memory.Address_space.name sb) i
                       (Memory.Address_space.frame_at sb i) (Memory.Address_space.frame_at ss i)
                 done)
               !registered;
             let same what f = if f bulk <> f single then fail "%s: %d vs %d" what (f bulk) (f single) in
             same "full_scans" Memory.Ksm.full_scans;
             same "pages_merged" Memory.Ksm.pages_merged;
             same "pages_rescan_avoided" Memory.Ksm.pages_rescan_avoided;
             same "pages_volatile_skipped" Memory.Ksm.pages_volatile_skipped;
             if scanned tb <> scanned ts then
               fail "ksm_pages_scanned_total: %.0f vs %.0f" (scanned tb) (scanned ts);
             (* the pass time is a function of the pacing and the
                registered population alone *)
             let pages =
               List.fold_left (fun n (s, _) -> n + Memory.Address_space.pages s) 0 !registered
             in
             let pass_time ksm wakeups =
               if Memory.Ksm.time_for_full_pass ksm <> Sim.Time.mul (Sim.Time.ms 1.) (float_of_int wakeups)
               then fail "time_for_full_pass off for %d pages" pages
             in
             pass_time bulk ((pages + k - 1) / k);
             pass_time single pages
           in
           let add_space () =
             let pages = [| 1; 5; 31; 32; 33; 64; 70 |].(Sim.Rng.int r 7) in
             let contents = Array.init pages (fun _ -> Memory.Page.Content.of_int (Sim.Rng.int r 4)) in
             let make (_, ft, ksm) =
               let s =
                 Memory.Address_space.create_root ft ~name:(Printf.sprintf "s%d" !next) ~pages
               in
               Memory.Address_space.load s ~offset:0 contents;
               Memory.Ksm.register ksm s;
               s
             in
             incr next;
             let sb = make wb in
             registered := (sb, make ws) :: !registered
           in
           add_space ();
           add_space ();
           for _ = 1 to 50 do
             (match Sim.Rng.int r 20 with
             | 0 | 1 -> add_space ()
             | 2 -> (
               match !registered with
               | [] -> ()
               | spaces ->
                 let sb, ss = List.nth spaces (Sim.Rng.int r (List.length spaces)) in
                 Memory.Ksm.unregister bulk sb;
                 Memory.Ksm.unregister single ss;
                 registered := List.filter (fun (s, _) -> s != sb) spaces)
             | 3 | 4 | 5 | 6 | 7 -> (
               match !registered with
               | [] -> ()
               | spaces ->
                 let sb, ss = List.nth spaces (Sim.Rng.int r (List.length spaces)) in
                 let i = Sim.Rng.int r (Memory.Address_space.pages sb) in
                 let c = Memory.Page.Content.of_int (Sim.Rng.int r 4) in
                 ignore (Memory.Address_space.write sb i c);
                 ignore (Memory.Address_space.write ss i c))
             | _ ->
               Memory.Ksm.scan_once bulk;
               check_world wb;
               for _ = 1 to k do
                 Memory.Ksm.scan_once single;
                 check_world ws
               done);
             compare ()
           done;
           true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"refcounts never go negative through write storms" ~count:50
         QCheck.(small_int)
         (fun seed ->
           let ft = Memory.Frame_table.create (Sim.Ctx.create ()) in
           let a = Memory.Address_space.create_root ft ~name:"a" ~pages:16 in
           let b = Memory.Address_space.create_root ft ~name:"b" ~pages:16 in
           let r = Sim.Rng.create seed in
           (* randomly write equal contents, merge some, write again *)
           for _ = 1 to 200 do
             let i = Sim.Rng.int r 16 in
             let c = Memory.Page.Content.of_int (Sim.Rng.int r 8) in
             ignore (Memory.Address_space.write a i c);
             ignore (Memory.Address_space.write b i c);
             if Sim.Rng.bool r then
               Memory.Address_space.remap b i (Memory.Address_space.frame_at a i);
             if Sim.Rng.bool r then
               ignore
                 (Memory.Address_space.write b i (Memory.Page.Content.of_int (Sim.Rng.int r 8)))
           done;
           (* every page still readable and every frame refcount >= 1 *)
           let ok = ref true in
           for i = 0 to 15 do
             let fa = Memory.Address_space.frame_at a i in
             let fb = Memory.Address_space.frame_at b i in
             if Memory.Frame_table.refcount ft fa < 1 || Memory.Frame_table.refcount ft fb < 1
             then ok := false
           done;
           !ok));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"ksm merge preserves every space's contents" ~count:20
         QCheck.(small_int)
         (fun seed ->
           let ctx = Sim.Ctx.create ~seed () in
           let engine = Sim.Ctx.engine ctx in
           let ft = Memory.Frame_table.create ctx in
           let ksm = Memory.Ksm.create ~config:Memory.Ksm.fast_config ctx ft in
           let r = Sim.Rng.create seed in
           let spaces =
             List.init 3 (fun k ->
                 Memory.Address_space.create_root ft ~name:(Printf.sprintf "s%d" k) ~pages:32)
           in
           List.iter
             (fun s ->
               for i = 0 to 31 do
                 ignore
                   (Memory.Address_space.write s i (Memory.Page.Content.of_int (Sim.Rng.int r 10)))
               done;
               Memory.Ksm.register ksm s)
             spaces;
           let before = List.map Memory.Address_space.contents spaces in
           Memory.Ksm.start ksm;
           ignore (Sim.Engine.run_for engine (Sim.Time.s 1.));
           Memory.Ksm.stop ksm;
           let after = List.map Memory.Address_space.contents spaces in
           List.for_all2
             (fun b a -> Array.for_all2 Memory.Page.Content.equal b a)
             before after));
  ]

let () =
  Alcotest.run "memory"
    [
      ("page", content_tests);
      ("frame_table", frame_tests);
      ("dirty", dirty_tests);
      ("address_space", space_tests);
      ("page_path", primitive_tests);
      ("write_watchers", watcher_tests);
      ("ksm", ksm_tests);
      ("ksm_incremental", incremental_tests);
      ("file_image", file_tests);
      ("write_probe", probe_tests);
      ("properties", mem_props);
    ]
