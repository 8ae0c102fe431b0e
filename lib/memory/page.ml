let size_bytes = 4096
let pages_of_bytes bytes = (bytes + size_bytes - 1) / size_bytes

module Content = struct
  type t = int64

  let zero = 0L

  let[@inline] mix z =
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.(logxor z (shift_right_logical z 31))

  (* Tag 0 must not collide with the zero page, hence the offset. *)
  let of_int n = mix (Int64.of_int (n + 0x5EED))

  let random rng = Sim.Rng.int64 rng

  let[@inline] mutate c ~salt =
    let c' = mix (Int64.add c (Int64.of_int (salt + 1))) in
    if Int64.equal c' c then Int64.lognot c else c'

  let of_int64 x = x
  let to_int64 x = x
  let equal = Int64.equal
  let[@inline] hash c = Int64.to_int (Int64.shift_right_logical c 3)
  let is_zero c = Int64.equal c 0L
end
