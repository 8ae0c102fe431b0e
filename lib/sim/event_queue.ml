(* Hierarchical timing wheel.

   Time is quantised into 64 ns ticks. Five wheel levels of 256 slots
   each cover [2^8, 2^16, 2^24, 2^32, 2^40) ticks of horizon (level k
   spans 256^(k+1) ticks, one slot = 256^k ticks); anything beyond
   ~19.5 simulated hours ahead goes to an unsorted overflow list with a
   tracked minimum, and is folded back into the wheels when the clock
   approaches it. Near-horizon schedule and expire - the traffic that
   dominates a simulation: scan ticks, round timers, packet deliveries -
   is O(1) amortised, with no per-event hashing.

   Determinism. The external contract is identical to the binary heap
   this replaces (kept as [Event_heap] under bench/): events come out
   ordered by [(time, seq)] where [seq] is the push order. The wheel
   never needs to preserve insertion order internally: when a level-0
   slot's window becomes current, its due entries are sorted by
   [(time, seq)] - a total order because [seq] is unique - into the
   [due] buffer, so same-timestamp FIFO ties are exact by construction.

   Placement invariant. Every entry stored in a wheel slot lies inside
   the *nearest upcoming occurrence* of that slot's window (slot indices
   recur every 256^(k+1) ticks at level k). [place] verifies this and
   bumps an entry to a coarser level (or overflow) when its natural
   level would alias a nearer occurrence of the same slot; this is what
   makes [window_start] an exact earliest-bound for every occupied slot
   and guarantees the cascade terminates. Cascading a level-k slot moves
   its in-window entries directly down to level k-1 by their tick bits
   (each level-k slot fans out injectively onto the 256 level-(k-1)
   slots below it), so every cascade strictly descends.

   Cancellation is O(1) and allocation-free: handles are generation
   tagged indices into an arena of generation counters. Cancelling (or
   firing) bumps the generation, which simultaneously invalidates the
   handle and marks the entry - still sitting in some slot - as dead;
   dead entries are dropped lazily when their slot is next touched, and
   when the live count reaches zero the whole structure is purged so
   popped payloads never linger. *)

type handle = int

(* Handle layout: low [idx_bits] bits index the generation arena, the
   rest carry the generation the handle was minted with. With 63-bit
   ints this allows ~2^34 reuses per cell before a stale handle could
   collide; generations also wrap defensively at that bound. *)
let idx_bits = 28
let idx_mask = (1 lsl idx_bits) - 1
let gen_mask = (1 lsl (Sys.int_size - 1 - idx_bits)) - 1

let tick_bits = 6 (* 64 ns per tick *)
let level_bits = 8
let wheel_slots = 1 lsl level_bits
let slot_mask = wheel_slots - 1
let levels = 5

(* Occupancy bitmaps use 32-bit words (8 per level) so shifts stay well
   inside OCaml's 63-bit ints. *)
let occ_words = wheel_slots / 32

type 'a entry = {
  time : Time.t;
  seq : int;
  key : handle; (* generation-tagged; dead iff gens.(idx) moved on *)
  payload : 'a;
}

type 'a t = {
  mutable due : 'a entry list; (* sorted by (time, seq); consumed by pop *)
  slots : 'a entry list array array; (* [level].[slot], unordered *)
  occ : int array array; (* [level].[word] occupancy bitmap *)
  mutable overflow : 'a entry list; (* beyond the top level's horizon *)
  mutable overflow_min : int; (* lower bound on overflow ticks *)
  mutable cur : int; (* harvest position, in ticks *)
  mutable live : int;
  mutable next_seq : int;
  mutable gens : int array; (* arena: current generation per cell *)
  mutable cells : int; (* arena high-water mark *)
  mutable free : int array; (* stack of freed cell indices *)
  mutable free_top : int;
}

let create () =
  {
    due = [];
    slots = Array.init levels (fun _ -> Array.make wheel_slots []);
    occ = Array.init levels (fun _ -> Array.make occ_words 0);
    overflow = [];
    overflow_min = max_int;
    cur = 0;
    live = 0;
    next_seq = 0;
    gens = [||];
    cells = 0;
    free = [||];
    free_top = 0;
  }

let is_empty t = t.live = 0
let size t = t.live

(* --- generation arena ------------------------------------------------ *)

let alloc_cell t =
  if t.free_top > 0 then begin
    t.free_top <- t.free_top - 1;
    t.free.(t.free_top)
  end
  else begin
    if t.cells = Array.length t.gens then begin
      let cap = Array.length t.gens in
      let new_cap = if cap = 0 then 16 else 2 * cap in
      let g = Array.make new_cap 0 in
      Array.blit t.gens 0 g 0 cap;
      t.gens <- g
    end;
    let i = t.cells in
    t.cells <- t.cells + 1;
    i
  end

let free_cell t idx =
  if t.free_top = Array.length t.free then begin
    let cap = Array.length t.free in
    let new_cap = if cap = 0 then 16 else 2 * cap in
    let f = Array.make new_cap 0 in
    Array.blit t.free 0 f 0 cap;
    t.free <- f
  end;
  t.free.(t.free_top) <- idx;
  t.free_top <- t.free_top + 1

let handle_live t h =
  let idx = h land idx_mask in
  idx < t.cells && h lsr idx_bits = t.gens.(idx)

let cancelled t h = not (handle_live t h)

(* Invalidate [h]'s cell: bumping the generation kills the handle and
   the entry record still sitting in a slot in one store. *)
let kill_cell t h =
  let idx = h land idx_mask in
  t.gens.(idx) <- (t.gens.(idx) + 1) land gen_mask;
  free_cell t idx;
  t.live <- t.live - 1

let cancel t h = if handle_live t h then kill_cell t h

let entry_live t (e : 'a entry) = handle_live t e.key

(* --- ordering -------------------------------------------------------- *)

let entry_before (a : 'a entry) (b : 'a entry) =
  match Time.compare a.time b.time with
  | 0 -> a.seq < b.seq
  | c -> c < 0

let entry_compare (a : 'a entry) (b : 'a entry) =
  match Time.compare a.time b.time with
  | 0 -> Int.compare a.seq b.seq
  | c -> c

(* Sorted insert into [due]. Only reached by pushes whose tick is at or
   behind the harvest position (zero-delay work, or re-pushes into the
   current tick), so the list walked here is the already-harvested
   front, not the whole queue. *)
let rec due_insert e = function
  | [] -> [ e ]
  | x :: _ as l when entry_before e x -> e :: l
  | x :: rest -> x :: due_insert e rest

(* --- bitmap helpers -------------------------------------------------- *)

let ctz32 x =
  (* trailing zeros of a non-zero 32-bit value *)
  let n = ref 0 and x = ref x in
  if !x land 0xFFFF = 0 then begin
    n := !n + 16;
    x := !x lsr 16
  end;
  if !x land 0xFF = 0 then begin
    n := !n + 8;
    x := !x lsr 8
  end;
  if !x land 0xF = 0 then begin
    n := !n + 4;
    x := !x lsr 4
  end;
  if !x land 0x3 = 0 then begin
    n := !n + 2;
    x := !x lsr 2
  end;
  if !x land 0x1 = 0 then incr n;
  !n

let set_occ t k s =
  let w = s lsr 5 in
  t.occ.(k).(w) <- t.occ.(k).(w) lor (1 lsl (s land 31))

let clear_occ t k s =
  let w = s lsr 5 in
  t.occ.(k).(w) <- t.occ.(k).(w) land lnot (1 lsl (s land 31))

(* First occupied slot at level [k] in circular order starting at
   [s_from]; -1 if the level is empty. *)
let next_occupied t k s_from =
  let occ = t.occ.(k) in
  let w0 = s_from lsr 5 in
  let bit = s_from land 31 in
  let first = occ.(w0) land (-1 lsl bit) in
  if first <> 0 then (w0 lsl 5) lor ctz32 first
  else begin
    let rec scan i =
      if i > occ_words then -1
      else begin
        let wi = (w0 + i) mod occ_words in
        let word =
          if i = occ_words then occ.(w0) land lnot (-1 lsl bit) else occ.(wi)
        in
        if word <> 0 then (wi lsl 5) lor ctz32 word else scan (i + 1)
      end
    in
    scan 1
  end

(* --- tick geometry --------------------------------------------------- *)

(* Arithmetic shift so [Time.infinity] maps to a large positive tick and
   (defensively) negative times to a tick at or behind any cursor. *)
let tick_of_time (time : Time.t) =
  Int64.to_int (Int64.shift_right (Time.to_ns time) tick_bits)

(* Start tick of the nearest occurrence of slot [s] of level [k] that
   still contains a tick after [cur] (everything at or before [cur] is
   already dispatched). Thanks to the placement invariant this is an
   exact earliest-bound for the slot's contents. *)
let window_start t k s =
  let shift = level_bits * k in
  let p = t.cur asr shift in
  let s_cur = p land slot_mask in
  let p' = if s >= s_cur then p - s_cur + s else p - s_cur + wheel_slots + s in
  let w = p' lsl shift in
  (* The occurrence containing [cur] is exhausted once its last tick is
     at or before [cur] (always true at level 0, where a window is a
     single tick): skip a full turn of the wheel. *)
  if w + (1 lsl shift) - 1 <= t.cur then (p' + wheel_slots) lsl shift else w

let add_overflow t e tk =
  t.overflow <- e :: t.overflow;
  if tk < t.overflow_min then t.overflow_min <- tk

(* Place [e] (tick [tk], strictly ahead of [t.cur]) at the finest level
   where it falls inside the nearest occurrence of its slot. Starting
   from the level suggested by the distance, aliasing can only push the
   entry coarser, never finer, so this terminates at overflow at the
   latest. *)
let place t (e : 'a entry) tk =
  let delta = tk - t.cur in
  let rec go k =
    if k >= levels then add_overflow t e tk
    else if delta lsr (level_bits * (k + 1)) <> 0 then go (k + 1)
    else begin
      let shift = level_bits * k in
      let s = (tk asr shift) land slot_mask in
      let w = window_start t k s in
      if tk < w + (1 lsl shift) then begin
        t.slots.(k).(s) <- e :: t.slots.(k).(s);
        set_occ t k s
      end
      else go (k + 1) (* nearest occurrence is not [e]'s window: alias *)
    end
  in
  go 0

let insert t (e : 'a entry) =
  let tk = tick_of_time e.time in
  if tk <= t.cur then t.due <- due_insert e t.due else place t e tk

(* --- advancing the wheel --------------------------------------------- *)

(* Make the level-0 slot whose window is [w] current: live entries of
   this very tick move (sorted) into [due]; later aliases are replaced. *)
let harvest t s w =
  let l = t.slots.(0).(s) in
  t.slots.(0).(s) <- [];
  clear_occ t 0 s;
  if w > t.cur then t.cur <- w;
  let matched = ref [] in
  List.iter
    (fun e ->
      if entry_live t e then begin
        if tick_of_time e.time = w then matched := e :: !matched
        else place t e (tick_of_time e.time)
      end)
    l;
  match !matched with
  | [] -> ()
  | m -> t.due <- List.merge entry_compare (List.sort entry_compare m) t.due

(* Redistribute a level-k slot whose nearest window [w] is next:
   in-window entries drop straight to level k-1 by their tick bits;
   anything else (an alias, at least a full wheel turn away) is
   re-placed coarser. *)
let cascade t k s w =
  let l = t.slots.(k).(s) in
  t.slots.(k).(s) <- [];
  clear_occ t k s;
  if w - 1 > t.cur then t.cur <- w - 1;
  let shift = level_bits * k in
  let wspan = 1 lsl shift in
  List.iter
    (fun e ->
      if entry_live t e then begin
        let tk = tick_of_time e.time in
        if tk >= w && tk - w < wspan then begin
          let s' = (tk asr (shift - level_bits)) land slot_mask in
          t.slots.(k - 1).(s') <- e :: t.slots.(k - 1).(s');
          set_occ t (k - 1) s'
        end
        else place t e tk
      end)
    l

(* Fold overflow back into the wheels. Advancing [cur] to just before
   the earliest overflow tick is safe because the wheels are only
   consulted via [advance], which refills before the cursor could pass
   [overflow_min]; the earliest live entry then lands at level 0, so
   every refill makes progress. *)
let refill_overflow t =
  let l = t.overflow in
  t.overflow <- [];
  if t.overflow_min - 1 > t.cur then t.cur <- t.overflow_min - 1;
  t.overflow_min <- max_int;
  List.iter (fun e -> if entry_live t e then insert t e) l

(* Refill [due] with the next batch of events. Returns [true] iff [due]
   is non-empty afterwards; [false] only when no live entries remain
   outside [due]. *)
let rec advance t =
  match t.due with
  | _ :: _ -> true
  | [] ->
    let best_k = ref (-1) and best_s = ref 0 and best_w = ref max_int in
    (* Descending levels with a strict compare: ties go to the coarsest
       level, which must cascade before a finer harvest at the same
       window start. *)
    for k = levels - 1 downto 0 do
      let consider s =
        let w = window_start t k s in
        if w < !best_w then begin
          best_w := w;
          best_k := k;
          best_s := s
        end
      in
      let s_from = (t.cur asr (level_bits * k)) land slot_mask in
      let s = next_occupied t k s_from in
      if s >= 0 then begin
        consider s;
        (* Window starts are monotone along the circular slot order
           except for [s_from] itself, whose occurrence may have been
           bumped a whole turn ahead; the slot after it then holds the
           level's true minimum. *)
        if s = s_from then begin
          let s2 = next_occupied t k ((s_from + 1) land slot_mask) in
          if s2 >= 0 && s2 <> s_from then consider s2
        end
      end
    done;
    if t.overflow != [] && t.overflow_min <= !best_w then begin
      refill_overflow t;
      advance t
    end
    else if !best_k < 0 then false
    else if !best_k = 0 then begin
      harvest t !best_s !best_w;
      advance t
    end
    else begin
      cascade t !best_k !best_s !best_w;
      advance t
    end

(* Everything still stored is dead ([live] hit zero): drop it all so
   payloads of popped and cancelled events can be collected. The arena
   keeps its generations, so stale handles remain invalid. *)
let purge t =
  if t.due != [] then t.due <- [];
  if t.overflow != [] then begin
    t.overflow <- [];
    t.overflow_min <- max_int
  end;
  for k = 0 to levels - 1 do
    for w = 0 to occ_words - 1 do
      if t.occ.(k).(w) <> 0 then begin
        t.occ.(k).(w) <- 0;
        let base = w lsl 5 in
        for b = 0 to 31 do
          if t.slots.(k).(base lor b) != [] then t.slots.(k).(base lor b) <- []
        done
      end
    done
  done

(* --- interface ------------------------------------------------------- *)

let push t time payload =
  let idx = alloc_cell t in
  let key = (t.gens.(idx) lsl idx_bits) lor idx in
  let e = { time; seq = t.next_seq; key; payload } in
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  insert t e;
  key

let rec peek_time t =
  if t.live = 0 then begin
    purge t;
    None
  end
  else
    match t.due with
    | e :: rest ->
      if entry_live t e then Some e.time
      else begin
        t.due <- rest;
        peek_time t
      end
    | [] -> if advance t then peek_time t else None

let rec pop t =
  if t.live = 0 then begin
    purge t;
    None
  end
  else
    match t.due with
    | e :: rest ->
      t.due <- rest;
      if entry_live t e then begin
        kill_cell t e.key;
        Some (e.time, e.payload)
      end
      else pop t
    | [] -> if advance t then pop t else None
