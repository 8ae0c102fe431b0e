type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix (Int64.of_int seed) }

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let s = int64 t in
  { state = mix s }

(* Top 53 bits -> float in [0, 1). *)
let unit_float t =
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits *. (1. /. 9007199254740992.)

let int t bound =
  assert (bound > 0);
  (* keep 62 bits so the value fits OCaml's native positive int range *)
  let r = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  r mod bound

let float t bound = unit_float t *. bound
let bool t = Int64.logand (int64 t) 1L = 1L

let exponential t mean =
  let u = Float.max 1e-12 (unit_float t) in
  -.mean *. Float.log u

let gaussian t ~mu ~sigma =
  let u1 = Float.max 1e-12 (unit_float t) in
  let u2 = unit_float t in
  let z = Float.sqrt (-2. *. Float.log u1) *. Float.cos (2. *. Float.pi *. u2) in
  mu +. (sigma *. z)

let lognormal_noise t ~rsd =
  if rsd <= 0. then 1.
  else
    (* Parameterise the lognormal so the mean is 1 and the coefficient of
       variation is [rsd]: sigma^2 = ln(1 + rsd^2), mu = -sigma^2/2. *)
    let sigma2 = Float.log (1. +. (rsd *. rsd)) in
    let sigma = Float.sqrt sigma2 in
    Float.exp (gaussian t ~mu:(-.sigma2 /. 2.) ~sigma)

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))
