exception Out_of_memory_frames

type frame = int

(* Frame [f]'s state lives at index [f] of three parallel arrays, grown
   together: its content digest in bytes [8f .. 8f+7] of [contents]
   (native endian), its reference count in [refs.(f)], and its stable
   flag in byte [f] of [stable]. Nothing here is a per-frame heap block,
   so a content write stores no fresh box and the major GC has no
   per-frame blocks to mark or sweep. Freed frames wait in
   [free.(0 .. n_free - 1)], a stack reused last-in first-out, so
   freeing one stores an int instead of consing a cell. *)
type t = {
  mutable contents : Bytes.t;
  mutable refs : int array;
  mutable stable : Bytes.t;
  mutable used : int;
  mutable free : frame array;
  mutable n_free : int;
  mutable live : int;
  capacity : int option;
  telemetry : Sim.Telemetry.t option;
  m_cow_breaks : Sim.Telemetry.counter;
}

let create ?capacity_frames ctx =
  let telemetry = Sim.Ctx.telemetry ctx in
  {
    contents = Bytes.empty;
    refs = [||];
    stable = Bytes.empty;
    used = 0;
    free = [||];
    n_free = 0;
    live = 0;
    capacity = capacity_frames;
    telemetry;
    m_cow_breaks = Sim.Telemetry.counter telemetry ~component:"memory" "cow_breaks_total";
  }

let telemetry t = t.telemetry
let note_cow_break t = Sim.Telemetry.incr t.m_cow_breaks

let grow t =
  let cap = Array.length t.refs in
  let new_cap = if cap = 0 then 1024 else 2 * cap in
  let contents = Bytes.make (8 * new_cap) '\000' in
  Bytes.blit t.contents 0 contents 0 (8 * cap);
  let refs = Array.make new_cap 0 in
  Array.blit t.refs 0 refs 0 cap;
  let stable = Bytes.make new_cap '\000' in
  Bytes.blit t.stable 0 stable 0 cap;
  t.contents <- contents;
  t.refs <- refs;
  t.stable <- stable

let[@inline] get_content t f = Page.Content.of_int64 (Bytes.get_int64_ne t.contents (f lsl 3))
let[@inline] set_content t f c = Bytes.set_int64_ne t.contents (f lsl 3) (Page.Content.to_int64 c)
let get_stable t f = Bytes.get t.stable f <> '\000'
let set_stable t f b = Bytes.set t.stable f (if b then '\001' else '\000')

let alloc t c =
  (match t.capacity with
  | Some cap when t.live >= cap -> raise Out_of_memory_frames
  | Some _ | None -> ());
  let f =
    if t.n_free > 0 then begin
      t.n_free <- t.n_free - 1;
      t.free.(t.n_free)
    end
    else begin
      if t.used = Array.length t.refs then grow t;
      let f = t.used in
      t.used <- t.used + 1;
      f
    end
  in
  set_content t f c;
  t.refs.(f) <- 1;
  set_stable t f false;
  t.live <- t.live + 1;
  f

(* Every accessor but [is_live] asserts the frame is allocated. *)
let[@inline] assert_live t f = assert (t.refs.(f) > 0)
let is_live t f = f >= 0 && f < t.used && t.refs.(f) > 0

let[@inline] content t f =
  assert_live t f;
  get_content t f

let[@inline] refcount t f =
  assert_live t f;
  t.refs.(f)

let[@inline] is_shared t f = refcount t f > 1
let incref t f = t.refs.(f) <- refcount t f + 1

let decref t f =
  let r = refcount t f - 1 in
  t.refs.(f) <- r;
  if r = 0 then begin
    set_stable t f false;
    if t.n_free = Array.length t.free then begin
      let free = Array.make (max 1024 (2 * t.n_free)) 0 in
      Array.blit t.free 0 free 0 t.n_free;
      t.free <- free
    end;
    t.free.(t.n_free) <- f;
    t.n_free <- t.n_free + 1;
    t.live <- t.live - 1
  end

let[@inline] write t f c =
  assert (refcount t f = 1);
  set_content t f c

let mark_stable t f =
  assert_live t f;
  set_stable t f true

let is_stable t f =
  assert_live t f;
  get_stable t f

let live_frames t = t.live

(* [f acc refs] over every live frame's reference count. *)
let fold_live t init f =
  let acc = ref init in
  for i = 0 to t.used - 1 do
    let r = t.refs.(i) in
    if r > 0 then acc := f !acc r
  done;
  !acc

let shared_frames t = fold_live t 0 (fun n r -> if r > 1 then n + 1 else n)

let check_invariants t =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let counted_live = fold_live t 0 (fun n _ -> n + 1) in
  if counted_live <> t.live then
    err "frame_table: live counter %d but %d slots hold references" t.live counted_live
  else if
    match t.capacity with Some cap -> t.live > cap | None -> false
  then err "frame_table: %d live frames exceed the capacity" t.live
  else begin
    (* a sorted copy of the stack's live part, not its spare capacity *)
    let free = Array.sub t.free 0 t.n_free in
    Array.sort Int.compare free;
    let bad_free = Array.find_opt (fun f -> f < 0 || f >= t.used || t.refs.(f) > 0) free in
    let dup_free =
      let rec dup k =
        if k + 1 >= Array.length free then None
        else if free.(k) = free.(k + 1) then Some free.(k)
        else dup (k + 1)
      in
      dup 0
    in
    match (bad_free, dup_free) with
    | Some f, _ -> err "frame_table: free-stack frame %d is out of range or still referenced" f
    | None, Some f -> err "frame_table: frame %d appears twice on the free stack" f
    | None, None ->
      let rec scan f =
        if f >= t.used then Ok ()
        else
          let r = t.refs.(f) in
          if r < 0 then err "frame_table: frame %d has negative refcount %d" f r
          else if r = 0 && get_stable t f then
            err "frame_table: freed frame %d still flagged stable" f
          else scan (f + 1)
      in
      scan 0
  end

let sharing_savings_pages t = fold_live t 0 (fun n r -> if r > 1 then n + r - 1 else n)
