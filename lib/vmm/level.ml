type t = int

let l0 = 0
let l1 = 1
let l2 = 2
let deeper t = t + 1
let is_nested t = t >= 2

let of_int n =
  if n < 0 then invalid_arg "Level.of_int: negative depth";
  n

let to_int t = t
let equal = Int.equal
let pp fmt t = Format.fprintf fmt "L%d" t
let to_string t = "L" ^ string_of_int t
