type t = int64

let zero = 0L
let ns n = Int64.of_int n
let of_float_ns x = Int64.of_float (Float.round x)
let us x = of_float_ns (x *. 1e3)
let ms x = of_float_ns (x *. 1e6)
let s x = of_float_ns (x *. 1e9)
let minutes x = s (x *. 60.)
let add = Int64.add
let diff later earlier = Int64.sub later earlier
let mul d k = of_float_ns (Int64.to_float d *. k)
let max a b = if Int64.compare a b >= 0 then a else b
let min a b = if Int64.compare a b <= 0 then a else b
let compare = Int64.compare
let equal = Int64.equal
let ( <= ) a b = compare a b <= 0
let ( < ) a b = compare a b < 0
let ( >= ) a b = compare a b >= 0
let ( > ) a b = compare a b > 0
let to_ns t = t
let to_us t = Int64.to_float t /. 1e3
let to_ms t = Int64.to_float t /. 1e6
let to_s t = Int64.to_float t /. 1e9
let infinity = Int64.max_int
let is_infinite t = equal t infinity

let pp fmt t =
  if is_infinite t then Format.pp_print_string fmt "inf"
  else
    let f = Int64.to_float t in
    if Stdlib.( < ) f 1e3 then Format.fprintf fmt "%Ldns" t
    else if Stdlib.( < ) f 1e6 then Format.fprintf fmt "%.2fus" (f /. 1e3)
    else if Stdlib.( < ) f 1e9 then Format.fprintf fmt "%.2fms" (f /. 1e6)
    else Format.fprintf fmt "%.3fs" (f /. 1e9)

let to_string t = Format.asprintf "%a" pp t
