(* Bits live in an int array, 32 bits per word, so iteration can skip a
   whole word of clean pages with one compare and never needs a per-bit
   bounds check: bits >= [length] are never set, by construction. *)

type t = {
  words : int array;
  length : int;
  mutable count : int;
  m_drains : Sim.Telemetry.counter;
  m_pages_drained : Sim.Telemetry.counter;
}

let bits_per_word = 32

let make telemetry n =
  {
    words = Array.make ((n + bits_per_word - 1) / bits_per_word) 0;
    length = n;
    count = 0;
    m_drains = Sim.Telemetry.counter telemetry ~component:"memory" "dirty_drains_total";
    m_pages_drained =
      Sim.Telemetry.counter telemetry ~component:"memory" "dirty_pages_drained_total";
  }

let create n = make None n
let for_table table n = make (Frame_table.telemetry table) n

let length t = t.length

let[@inline] check t i = if i < 0 || i >= t.length then invalid_arg "Dirty: index out of range"

let is_dirty t i =
  check t i;
  (t.words.(i lsr 5) lsr (i land 31)) land 1 <> 0

let[@inline] set t i =
  check t i;
  let w = i lsr 5 in
  let mask = 1 lsl (i land 31) in
  let old = t.words.(w) in
  if old land mask = 0 then begin
    t.words.(w) <- old lor mask;
    t.count <- t.count + 1
  end

let test_and_clear t i =
  check t i;
  let w = i lsr 5 in
  let mask = 1 lsl (i land 31) in
  let old = t.words.(w) in
  if old land mask = 0 then false
  else begin
    t.words.(w) <- old land lnot mask;
    t.count <- t.count - 1;
    true
  end

let next_dirty_from t from =
  if from >= t.length then None
  else begin
    check t from;
    let words = t.words in
    let n_words = Array.length words in
    let rec from_word w first_bit =
      if w >= n_words then None
      else begin
        let word = Array.unsafe_get words w lsr first_bit in
        if word = 0 then from_word (w + 1) 0
        else begin
          (* find the lowest set bit of the shifted word *)
          let rest = ref word and bit = ref first_bit in
          while !rest land 1 = 0 do
            rest := !rest lsr 1;
            incr bit
          done;
          Some ((w lsl 5) + !bit)
        end
      end
    in
    (* a clean bitmap answers on its count alone, without walking its
       words: an idle incremental KSM wakeup relies on this *)
    if t.count = 0 then None else from_word (from lsr 5) (from land 31)
  end

(* Trailing one bits of [m], which has a zero bit below 32. A run ends
   at most once per call, so a bit loop costs little here. *)
let rec trailing_ones m = if m land 1 = 0 then 0 else 1 + trailing_ones (m lsr 1)

(* The words loop of [run_set_clean], at top level so that a call
   allocates no closure: [start] is the index of bit [first_bit] of word
   [w], and the run began at [from]. *)
let rec run_from_word words unless_words ~from ~stop w first_bit =
  let start = (w lsl 5) + first_bit in
  if start >= stop then stop - from
  else begin
    let m = (words.(w) land lnot unless_words.(w)) lsr first_bit in
    if m = (1 lsl (bits_per_word - first_bit)) - 1 then
      run_from_word words unless_words ~from ~stop (w + 1) 0
    else min stop (start + trailing_ones m) - from
  end

let run_set_clean t ~unless from ~limit =
  if unless.length <> t.length then invalid_arg "Dirty.run_set_clean: length mismatch";
  let stop = if limit >= t.length - from then t.length else from + limit in
  if from >= stop then 0
  else begin
    check t from;
    run_from_word t.words unless.words ~from ~stop (from lsr 5) (from land 31)
  end

let dirty_count t = t.count

let clear t =
  Array.fill t.words 0 (Array.length t.words) 0;
  t.count <- 0

let drain t ~into =
  if into.length <> t.length then invalid_arg "Dirty.drain: length mismatch";
  Array.blit t.words 0 into.words 0 (Array.length t.words);
  into.count <- t.count;
  Sim.Telemetry.incr t.m_drains;
  Sim.Telemetry.add t.m_pages_drained t.count;
  clear t

let fold_dirty t f init =
  let acc = ref init in
  let words = t.words in
  for w = 0 to Array.length words - 1 do
    let word = Array.unsafe_get words w in
    if word <> 0 then begin
      let base = w lsl 5 in
      (* shift the word down as bits are consumed so a word with few
         dirty pages exits early *)
      let rest = ref word and bit = ref 0 in
      while !rest <> 0 do
        if !rest land 1 <> 0 then acc := f !acc (base + !bit);
        rest := !rest lsr 1;
        incr bit
      done
    end
  done;
  !acc

let collect_and_clear t =
  let acc = fold_dirty t (fun acc i -> i :: acc) [] in
  clear t;
  List.rev acc
