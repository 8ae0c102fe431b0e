(* The original binary-heap event queue, kept as the reference
   implementation: the timing-wheel [Sim.Event_queue] must stay
   observably byte-identical to this structure, and the differential
   tests and throughput benchmarks compare against it.

   Cancellation is lazy: a cancelled entry stays in the heap and is
   discarded when it reaches the top. [pending] tracks ids that are in the
   heap and not cancelled, so [size] stays accurate and cancelling an
   already-fired event is a true no-op. *)

type handle = int

type 'a entry = {
  time : Sim.Time.t;
  seq : int;
  id : handle;
  payload : 'a;
}

type 'a t = {
  mutable heap : 'a entry array;
  mutable len : int;
  mutable next_seq : int;
  mutable next_id : handle;
  pending : (handle, unit) Hashtbl.t;
}

let create () =
  {
    heap = [||];
    len = 0;
    next_seq = 0;
    next_id = 0;
    pending = Hashtbl.create 64;
  }

let is_empty t = Hashtbl.length t.pending = 0
let size t = Hashtbl.length t.pending

let before a b =
  match Sim.Time.compare a.time b.time with
  | 0 -> a.seq < b.seq
  | c -> c < 0

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && before t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.len && before t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

(* [t.heap.(0)] is always a live entry here (grow runs mid-push when the
   array is full), so the doubling filler never pins a popped payload:
   slots beyond [len] only ever alias entries that are still in the
   heap. *)
let grow t =
  let cap = Array.length t.heap in
  let new_cap = if cap = 0 then 16 else 2 * cap in
  let new_heap = Array.make new_cap t.heap.(0) in
  Array.blit t.heap 0 new_heap 0 t.len;
  t.heap <- new_heap

let push t time payload =
  let id = t.next_id in
  t.next_id <- id + 1;
  let entry = { time; seq = t.next_seq; id; payload } in
  t.next_seq <- t.next_seq + 1;
  if t.len = 0 && Array.length t.heap = 0 then t.heap <- Array.make 16 entry
  else if t.len = Array.length t.heap then grow t;
  t.heap.(t.len) <- entry;
  t.len <- t.len + 1;
  sift_up t (t.len - 1);
  Hashtbl.add t.pending id ();
  id

let cancelled t id = not (Hashtbl.mem t.pending id)
let cancel t id = Hashtbl.remove t.pending id

let pop_top t =
  let top = t.heap.(0) in
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.heap.(0) <- t.heap.(t.len);
    sift_down t 0;
    (* Release the vacated tail slot's reference so the popped payload
       can be collected: alias it to the (live) minimum instead of
       leaving the stale entry behind. *)
    t.heap.(t.len) <- t.heap.(0)
  end
  else
    (* Emptied out: drop the whole array, every slot of which references
       popped entries. Next push re-seeds it. *)
    t.heap <- [||];
  top

let rec discard_cancelled t =
  if t.len > 0 && not (Hashtbl.mem t.pending t.heap.(0).id) then begin
    let _ = pop_top t in
    discard_cancelled t
  end

let peek_time t =
  discard_cancelled t;
  if t.len = 0 then None else Some t.heap.(0).time

let pop t =
  discard_cancelled t;
  if t.len = 0 then None
  else begin
    let top = pop_top t in
    Hashtbl.remove t.pending top.id;
    Some (top.time, top.payload)
  end
