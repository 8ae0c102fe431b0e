(* Welford's online algorithm for mean/variance, plus a retained sample
   list for percentiles below [sample_cap] and a mergeable quantile
   sketch above it. Experiment sample counts are small (5-1000), so the
   exact path covers them; streaming sinks (telemetry summaries,
   long-running monitors) spill into the sketch and stay
   allocation-bounded. *)

module Sketch = struct
  (* Merging t-digest with the uniform (k0) scale function: centroid
     weight is capped at [total / compression], so the sketch holds at
     most [2 * compression + 2] centroids and quantile estimates carry a
     rank error of at most ~[total / compression] (conservatively
     [2 * total / compression] at the interpolation boundaries). The k0
     scale trades the k1 variant's tail sharpening for purely rational
     arithmetic: no [asin]/[sin] calls, so estimates are bit-stable
     across libm implementations, which the golden-output suite relies
     on. Inserts land in a fixed buffer and are folded in by a single
     merge-compress pass; [merge_into] is one such pass over the two
     sorted centroid arrays, O(centroids). *)

  type t = {
    buf : float array; (* pending raw samples, unit weight *)
    mutable buf_len : int;
    means : float array; (* live centroids, sorted by mean *)
    weights : float array;
    mutable n : int; (* live centroid count *)
    mutable total : int;
    mutable sum_v : float;
    mutable min_v : float;
    mutable max_v : float;
    scratch_m : float array; (* merge-compress output workspace *)
    scratch_w : float array;
  }

  let compression = 128
  let max_centroids = (2 * compression) + 2

  let create () =
    {
      buf = Array.make (4 * compression) 0.;
      buf_len = 0;
      means = Array.make max_centroids 0.;
      weights = Array.make max_centroids 0.;
      n = 0;
      total = 0;
      sum_v = 0.;
      min_v = Float.infinity;
      max_v = Float.neg_infinity;
      scratch_m = Array.make max_centroids 0.;
      scratch_w = Array.make max_centroids 0.;
    }

  let count t = t.total
  let sum t = t.sum_v
  let min t = if t.total = 0 then Float.nan else t.min_v
  let max t = if t.total = 0 then Float.nan else t.max_v

  (* Merge the live centroids with a second sorted source (either the
     sorted insert buffer at unit weight, or another sketch's centroids)
     and compress the result back into [t]. Emitted clusters obey the
     weight cap, so the output count stays under [max_centroids]: any
     two consecutive output clusters sum to more than the cap. *)
  let merge_compress t ~w_total ~src_m ~src_w ~src_n =
    let limit = w_total /. float_of_int compression in
    let i = ref 0 and j = ref 0 and out = ref 0 in
    let cur_m = ref 0. and cur_w = ref 0. in
    let started = ref false in
    while !i < t.n || !j < src_n do
      let m, w =
        if
          !i < t.n
          && (!j >= src_n || Float.compare t.means.(!i) src_m.(!j) <= 0)
        then begin
          let v = (t.means.(!i), t.weights.(!i)) in
          incr i;
          v
        end
        else begin
          let v =
            (src_m.(!j), match src_w with Some w -> w.(!j) | None -> 1.)
          in
          incr j;
          v
        end
      in
      if not !started then begin
        started := true;
        cur_m := m;
        cur_w := w
      end
      else if !cur_w +. w <= limit then begin
        cur_m := !cur_m +. (w /. (!cur_w +. w) *. (m -. !cur_m));
        cur_w := !cur_w +. w
      end
      else begin
        t.scratch_m.(!out) <- !cur_m;
        t.scratch_w.(!out) <- !cur_w;
        incr out;
        cur_m := m;
        cur_w := w
      end
    done;
    if !started then begin
      t.scratch_m.(!out) <- !cur_m;
      t.scratch_w.(!out) <- !cur_w;
      incr out
    end;
    Array.blit t.scratch_m 0 t.means 0 !out;
    Array.blit t.scratch_w 0 t.weights 0 !out;
    t.n <- !out

  let flush t =
    if t.buf_len > 0 then begin
      let tmp = Array.sub t.buf 0 t.buf_len in
      Array.sort Float.compare tmp;
      merge_compress t
        ~w_total:(float_of_int t.total)
        ~src_m:tmp ~src_w:None ~src_n:t.buf_len;
      t.buf_len <- 0
    end

  let add t x =
    if t.buf_len = Array.length t.buf then flush t;
    t.buf.(t.buf_len) <- x;
    t.buf_len <- t.buf_len + 1;
    t.total <- t.total + 1;
    t.sum_v <- t.sum_v +. x;
    if x < t.min_v then t.min_v <- x;
    if x > t.max_v then t.max_v <- x

  let centroids t =
    flush t;
    t.n

  let merge_into ~into src =
    if src.total > 0 then begin
      flush src;
      flush into;
      merge_compress into
        ~w_total:(float_of_int (into.total + src.total))
        ~src_m:src.means ~src_w:(Some src.weights) ~src_n:src.n;
      into.total <- into.total + src.total;
      into.sum_v <- into.sum_v +. src.sum_v;
      if src.min_v < into.min_v then into.min_v <- src.min_v;
      if src.max_v > into.max_v then into.max_v <- src.max_v
    end

  let copy t =
    {
      t with
      buf = Array.copy t.buf;
      means = Array.copy t.means;
      weights = Array.copy t.weights;
      scratch_m = Array.copy t.scratch_m;
      scratch_w = Array.copy t.scratch_w;
    }

  (* Interpolates over centroid midpoints: centroid [i] is treated as
     sitting at cumulative rank [sum w_0..w_{i-1} + w_i / 2], with the
     extremes anchored at the exact tracked min/max. *)
  let quantile t q =
    if t.total = 0 then Float.nan
    else if t.total = 1 then t.min_v
    else begin
      flush t;
      let q = Float.max 0. (Float.min 1. q) in
      let target = q *. float_of_int t.total in
      let result = ref Float.nan in
      let found = ref false in
      let cum = ref 0. in
      let prev_rank = ref 0. in
      let prev_val = ref t.min_v in
      for i = 0 to t.n - 1 do
        let w = t.weights.(i) in
        let mid = !cum +. (w /. 2.) in
        if (not !found) && target <= mid then begin
          found := true;
          result :=
            (if mid -. !prev_rank <= 0. then t.means.(i)
             else
               !prev_val
               +. (target -. !prev_rank)
                  /. (mid -. !prev_rank)
                  *. (t.means.(i) -. !prev_val))
        end;
        cum := !cum +. w;
        prev_rank := mid;
        prev_val := t.means.(i)
      done;
      if not !found then begin
        let denom = float_of_int t.total -. !prev_rank in
        result :=
          (if denom <= 0. then t.max_v
           else
             !prev_val
             +. ((target -. !prev_rank) /. denom *. (t.max_v -. !prev_val)))
      end;
      Float.max t.min_v (Float.min t.max_v !result)
    end

  let percentile t p = quantile t (p /. 100.)
end

type t = {
  mutable n : int;
  mutable mean_acc : float;
  mutable m2 : float;
  mutable min_v : float;
  mutable max_v : float;
  mutable sum_v : float;
  sample_cap : int;
  mutable rev_samples : float list;
  mutable sorted : float array option;
      (* cache for percentile queries, invalidated by [add] so a summary
         (p50/p95/p99) sorts once instead of three times *)
  mutable sketch : Sketch.t option;
      (* engaged once [n] exceeds [sample_cap]; from then on percentiles
         are sketch estimates and [rev_samples] stays empty *)
}

let default_sample_cap = 1024

let create ?(sample_cap = default_sample_cap) () =
  {
    n = 0;
    mean_acc = 0.;
    m2 = 0.;
    min_v = Float.infinity;
    max_v = Float.neg_infinity;
    sum_v = 0.;
    sample_cap = Stdlib.max 0 sample_cap;
    rev_samples = [];
    sorted = None;
    sketch = None;
  }

(* Spill the retained samples (in insertion order) into a fresh sketch;
   the exact-percentile path is abandoned for this accumulator. *)
let spill t =
  match t.sketch with
  | Some sk -> sk
  | None ->
    let sk = Sketch.create () in
    List.iter (Sketch.add sk) (List.rev t.rev_samples);
    t.rev_samples <- [];
    t.sorted <- None;
    t.sketch <- Some sk;
    sk

(* The single ingestion path: [add_time], [of_list] and [merge_into] all
   funnel through here (or through the sketch directly), so the cap and
   cache-invalidation logic lives in exactly one place. *)
let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean_acc in
  t.mean_acc <- t.mean_acc +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean_acc));
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x;
  t.sum_v <- t.sum_v +. x;
  match t.sketch with
  | Some sk -> Sketch.add sk x
  | None ->
    if t.n <= t.sample_cap then begin
      t.rev_samples <- x :: t.rev_samples;
      t.sorted <- None
    end
    else Sketch.add (spill t) x

let add_time t d = add t (Int64.to_float (Time.to_ns d))
let count t = t.n
let mean t = if t.n = 0 then Float.nan else t.mean_acc
let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
let stddev t = Float.sqrt (variance t)

let rsd t =
  let m = mean t in
  if t.n < 2 || Float.equal m 0. || Float.is_nan m then 0. else stddev t /. Float.abs m

let min t = t.min_v
let max t = t.max_v
let sum t = t.sum_v
let samples t = List.rev t.rev_samples
let is_sketched t = Option.is_some t.sketch

let of_list xs =
  let t = create () in
  List.iter (add t) xs;
  t

let merge_into ~into src =
  if src.n > 0 then begin
    let n1 = float_of_int into.n and n2 = float_of_int src.n in
    let nt = n1 +. n2 in
    if into.n = 0 then begin
      into.mean_acc <- src.mean_acc;
      into.m2 <- src.m2
    end
    else begin
      let delta = src.mean_acc -. into.mean_acc in
      into.mean_acc <- into.mean_acc +. (delta *. n2 /. nt);
      into.m2 <- into.m2 +. src.m2 +. (delta *. delta *. n1 *. n2 /. nt)
    end;
    if src.min_v < into.min_v then into.min_v <- src.min_v;
    if src.max_v > into.max_v then into.max_v <- src.max_v;
    into.sum_v <- into.sum_v +. src.sum_v;
    into.n <- into.n + src.n;
    match (into.sketch, src.sketch) with
    | None, None when into.n <= into.sample_cap ->
      (* both exact and still under the cap: equivalent to having added
         src's samples after into's, so percentiles stay exact *)
      into.rev_samples <- src.rev_samples @ into.rev_samples;
      into.sorted <- None
    | _ ->
      let sk = spill into in
      (match src.sketch with
      | Some sk2 -> Sketch.merge_into ~into:sk sk2
      | None -> List.iter (Sketch.add sk) (List.rev src.rev_samples))
  end

let sorted_samples t =
  match t.sorted with
  | Some arr -> arr
  | None ->
    let arr = Array.of_list t.rev_samples in
    Array.sort Float.compare arr;
    t.sorted <- Some arr;
    arr

let percentile t p =
  if t.n = 0 then Float.nan
  else begin
    match t.sketch with
    | Some sk -> Sketch.percentile sk p
    | None ->
      let arr = sorted_samples t in
      let p = Float.max 0. (Float.min 100. p) in
      let rank = p /. 100. *. float_of_int (Array.length arr - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = int_of_float (Float.ceil rank) in
      if lo = hi then arr.(lo)
      else
        let frac = rank -. float_of_int lo in
        arr.(lo) +. (frac *. (arr.(hi) -. arr.(lo)))
  end

type summary = {
  n : int;
  mean : float;
  stddev : float;
  rsd : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let summary (t : t) : summary =
  {
    n = t.n;
    mean = mean t;
    stddev = stddev t;
    rsd = rsd t;
    min = (if t.n = 0 then Float.nan else t.min_v);
    max = (if t.n = 0 then Float.nan else t.max_v);
    p50 = percentile t 50.;
    p95 = percentile t 95.;
    p99 = percentile t 99.;
  }

let percent_change ~from_ ~to_ =
  if Float.equal from_ 0. then Float.nan else (to_ -. from_) /. from_ *. 100.
