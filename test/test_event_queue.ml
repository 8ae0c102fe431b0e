(* Model-based tests for the event queue (Sim.Event_queue) against one
   oracle, a sorted-list model: the queue promises (time, seq) order,
   FIFO on equal timestamps and lazy cancellation, so any divergence
   under random push/cancel/pop/peek interleavings is a bug. *)

(* ---- operations ---- *)

type op =
  | Push of int  (* timestamp in ns *)
  | Cancel of int  (* index into the list of all pushed handles *)
  | Pop
  | Peek

(* The sorted-list model: (time_ns, seq) kept in pop order. *)
let model_insert (t, s) l =
  let rec go = function
    | [] -> [ (t, s) ]
    | (t', s') :: _ as l when t < t' || (t = t' && s < s') -> (t, s) :: l
    | x :: rest -> x :: go rest
  in
  go l

(* Run the op list against the queue and the model simultaneously,
   checking every observation. Returns unit or fails the test. *)
let check_against_model ops =
  let q = Sim.Event_queue.create () in
  let model = ref [] in
  let seq = ref 0 in
  let pushed = ref [] (* newest first: (seq, handle) - includes fired ones *) in
  let fail fmt = Printf.ksprintf (fun m -> Alcotest.fail m) fmt in
  List.iter
    (fun op ->
      match op with
      | Push tns ->
        let h = Sim.Event_queue.push q (Sim.Time.ns tns) !seq in
        model := model_insert (tns, !seq) !model;
        pushed := (!seq, h) :: !pushed;
        incr seq
      | Cancel k -> (
        match !pushed with
        | [] -> ()
        | l ->
          (* may pick an already-fired or already-cancelled handle: both
             must be no-ops on the queue and leave the model unchanged *)
          let s, h = List.nth l (k mod List.length l) in
          Sim.Event_queue.cancel q h;
          model := List.filter (fun (_, s') -> s' <> s) !model)
      | Pop -> (
        match (Sim.Event_queue.pop q, !model) with
        | None, [] -> ()
        | Some (t, v), (tm, sm) :: rest ->
          if Sim.Time.to_ns t <> Int64.of_int tm || v <> sm then
            fail "pop mismatch: queue (%Ld,%d) model (%d,%d)" (Sim.Time.to_ns t) v tm sm;
          model := rest
        | None, (tm, sm) :: _ -> fail "queue empty, model has (%d,%d)" tm sm
        | Some (t, v), [] -> fail "queue has (%Ld,%d), model empty" (Sim.Time.to_ns t) v)
      | Peek -> (
        if Sim.Event_queue.size q <> List.length !model then
          fail "size mismatch: queue %d model %d" (Sim.Event_queue.size q) (List.length !model);
        match (Sim.Event_queue.peek_time q, !model) with
        | None, [] -> ()
        | Some t, (tm, _) :: _ ->
          if Sim.Time.to_ns t <> Int64.of_int tm then
            fail "peek mismatch: queue %Ld model %d" (Sim.Time.to_ns t) tm
        | None, (tm, _) :: _ -> fail "peek: queue empty, model head %d" tm
        | Some t, [] -> fail "peek: queue %Ld, model empty" (Sim.Time.to_ns t)))
    ops;
  if Sim.Event_queue.size q <> List.length !model then
    fail "size mismatch: queue %d model %d" (Sim.Event_queue.size q) (List.length !model);
  (* drain what is left and compare the tail order *)
  let rec drain () =
    match (Sim.Event_queue.pop q, !model) with
    | None, [] -> ()
    | Some (t, v), (tm, sm) :: rest ->
      if Sim.Time.to_ns t <> Int64.of_int tm || v <> sm then
        fail "drain mismatch: queue (%Ld,%d) model (%d,%d)" (Sim.Time.to_ns t) v tm sm;
      model := rest;
      drain ()
    | None, (tm, _) :: _ -> fail "drain: queue dry with model head %d" tm
    | Some (t, _), [] -> fail "drain: queue overfull at %Ld" (Sim.Time.to_ns t)
  in
  drain ()

(* ---- generators ---- *)

(* Timestamps mixing heavy same-instant ties, nearby and spread-out
   times, and far-future events (1e14 ns, about 28 simulated hours). *)
let time_gen =
  QCheck.Gen.frequency
    [
      (3, QCheck.Gen.int_bound 255);
      (4, QCheck.Gen.int_bound 1_000_000);
      (2, QCheck.Gen.map (fun x -> x * 1_000_003) (QCheck.Gen.int_bound 1_000_000));
      (1, QCheck.Gen.map (fun x -> 100_000_000_000_000 + x) (QCheck.Gen.int_bound 1_000_000));
    ]

let op_gen =
  QCheck.Gen.frequency
    [
      (6, QCheck.Gen.map (fun t -> Push t) time_gen);
      (2, QCheck.Gen.map (fun k -> Cancel k) QCheck.Gen.small_nat);
      (4, QCheck.Gen.return Pop);
      (2, QCheck.Gen.return Peek);
    ]

let print_op = function
  | Push t -> Printf.sprintf "Push %d" t
  | Cancel k -> Printf.sprintf "Cancel %d" k
  | Pop -> "Pop"
  | Peek -> "Peek"

let ops_arbitrary =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    (QCheck.Gen.list_size (QCheck.Gen.int_range 0 400) op_gen)

let model_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"queue matches sorted-list model" ~count:300 ops_arbitrary
         (fun ops ->
           check_against_model ops;
           true));
  ]

(* ---- differential replay vs the sorted-list model ---- *)

(* Replays a seeded op stream against the queue and the sorted-list
   model and checks every observation agrees. Deterministic seeds make
   failures reproducible; the long streams keep many far-future events
   queued behind near ones. *)
let differential_drain ~seed ~ops:n_ops =
  let r = Sim.Rng.create seed in
  let ops =
    List.init n_ops (fun _ ->
        match Sim.Rng.int r 100 with
        | c when c < 45 ->
          let tns =
            match Sim.Rng.int r 10 with
            | 0 -> 100_000_000_000_000 + Sim.Rng.int r 1_000_000
            | 1 | 2 -> Sim.Rng.int r 256
            | 3 | 4 | 5 -> Sim.Rng.int r 1_000_000
            | _ -> Sim.Rng.int r 1_000_000 * 1_000_003
          in
          Push tns
        | c when c < 60 -> Cancel (Sim.Rng.int r 1_000_000)
        | c when c < 90 -> Pop
        | _ -> Peek)
  in
  check_against_model ops

let differential_tests =
  [
    Alcotest.test_case "queue = model over short random streams" `Quick (fun () ->
        for seed = 0 to 49 do
          differential_drain ~seed ~ops:500
        done);
    Alcotest.test_case "queue = model over long far-future-heavy streams" `Quick (fun () ->
        for seed = 20 to 29 do
          differential_drain ~seed ~ops:2000
        done);
  ]

(* ---- directed semantics tests ---- *)

let semantics_tests =
  let open Sim.Event_queue in
  [
    Alcotest.test_case "same-timestamp events pop in push order" `Quick (fun () ->
        let q = create () in
        let t = Sim.Time.ms 1. in
        for i = 0 to 99 do
          ignore (push q t i)
        done;
        for i = 0 to 99 do
          match pop q with
          | Some (t', v) ->
            Alcotest.(check int64) "time" (Sim.Time.to_ns t) (Sim.Time.to_ns t');
            Alcotest.(check int) "FIFO" i v
          | None -> Alcotest.fail "queue dry"
        done);
    Alcotest.test_case "far-future events wait behind nearer ones and return" `Quick (fun () ->
        let q = create () in
        let far = Sim.Time.ns 200_000_000_000_000 in
        let farther = Sim.Time.ns 200_000_000_001_000 in
        let h_far = push q far 1 in
        ignore (push q farther 2);
        ignore (push q (Sim.Time.ms 1.) 0);
        Alcotest.(check int) "three live" 3 (size q);
        Alcotest.(check (option int)) "near first" (Some 0) (Option.map snd (pop q));
        cancel q h_far;
        Alcotest.(check (option int)) "far survivor" (Some 2) (Option.map snd (pop q));
        Alcotest.(check bool) "drained" true (pop q = None));
    Alcotest.test_case "re-armed slot after harvest does not stall" `Quick (fun () ->
        (* pop an event, then push events just after it, further out,
           and much further out; each pop must terminate and preserve
           order *)
        let q = create () in
        let tick n = Sim.Time.ns (64 * n) in
        ignore (push q (tick 7935) 0);
        Alcotest.(check (option int)) "first" (Some 0) (Option.map snd (pop q));
        ignore (push q (tick 8191) 1);
        ignore (push q (tick (7935 + 256 * 256)) 2);
        ignore (push q (tick 7936) 3);
        Alcotest.(check (option int)) "nearest" (Some 3) (Option.map snd (pop q));
        Alcotest.(check (option int)) "next" (Some 1) (Option.map snd (pop q));
        Alcotest.(check (option int)) "furthest" (Some 2) (Option.map snd (pop q)));
    Alcotest.test_case "cancelled handle reports cancelled; fired too" `Quick (fun () ->
        let q = create () in
        let a = push q (Sim.Time.ms 1.) "a" in
        let b = push q (Sim.Time.ms 2.) "b" in
        Alcotest.(check int) "both pending" 2 (size q);
        cancel q a;
        Alcotest.(check int) "a cancelled" 1 (size q);
        cancel q a;
        Alcotest.(check int) "a cancelled twice" 1 (size q);
        Alcotest.(check (option string)) "b pops" (Some "b") (Option.map snd (pop q));
        Alcotest.(check int) "b fired" 0 (size q);
        cancel q b;
        Alcotest.(check int) "cancelling fired b is a no-op" 0 (size q);
        Alcotest.(check bool) "empty" true (pop q = None);
        ignore (push q (Sim.Time.ms 3.) "c");
        Alcotest.(check (option string)) "later push unaffected" (Some "c")
          (Option.map snd (pop q)));
    Alcotest.test_case "cancel is O(1) bookkeeping: size tracks live events" `Quick (fun () ->
        let q = create () in
        let hs = List.init 64 (fun i -> push q (Sim.Time.us (float_of_int i)) i) in
        List.iteri (fun i h -> if i mod 2 = 0 then cancel q h) hs;
        Alcotest.(check int) "half live" 32 (size q);
        let rec drain acc = match pop q with None -> List.rev acc | Some (_, v) -> drain (v :: acc) in
        Alcotest.(check (list int)) "odd payloads in order" (List.init 32 (fun i -> (2 * i) + 1))
          (drain []));
  ]

(* ---- payload release (GC) ---- *)

(* Popping (or draining) must not leave payload pointers behind in the
   heap array: a vacated tail slot is re-aliased to a live entry, and
   the array is dropped when the queue empties. *)
let gc_tests =
  let weak_of v =
    let w = Weak.create 1 in
    Weak.set w 0 (Some v);
    w
  in
  let gone w =
    Gc.full_major ();
    Gc.full_major ();
    Weak.get w 0 = None
  in
  let open Sim.Event_queue in
  [
    Alcotest.test_case "heap releases payloads after drain" `Quick (fun () ->
        let q = create () in
        let p = ref (Bytes.create 64) in
        let w = weak_of !p in
        ignore (push q (Sim.Time.ms 1.) !p);
        ignore (push q (Sim.Time.ms 2.) (Bytes.create 8));
        p := Bytes.create 0;
        ignore (pop q);
        ignore (pop q);
        Alcotest.(check bool) "payload collectable" true (gone w));
    Alcotest.test_case "heap releases a popped payload while others remain" `Quick (fun () ->
        let q = create () in
        let p = ref (Bytes.create 64) in
        let w = weak_of !p in
        ignore (push q (Sim.Time.ms 1.) !p);
        for i = 2 to 4 do
          ignore (push q (Sim.Time.ms (float_of_int i)) (Bytes.create 8))
        done;
        p := Bytes.create 0;
        ignore (pop q);
        (* three events still queued: the vacated tail slot must not pin
           the popped payload *)
        Alcotest.(check bool) "payload collectable" true (gone w));
    Alcotest.test_case "heap releases everything when drained" `Quick (fun () ->
        let q = create () in
        let p = ref (Bytes.create 64) in
        let w = weak_of !p in
        ignore (push q (Sim.Time.ms 1.) !p);
        p := Bytes.create 0;
        ignore (pop q);
        Alcotest.(check bool) "payload collectable" true (gone w));
  ]

let () =
  Alcotest.run "event_queue"
    [
      ("model", model_props);
      ("differential", differential_tests);
      ("semantics", semantics_tests);
      ("gc", gc_tests);
    ]
