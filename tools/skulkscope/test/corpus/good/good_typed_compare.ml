(* corpus: typed compares reached through a local open — zero findings.
   Each [compare] resolves to Int.compare or Float.compare, never to
   Stdlib's polymorphic one. *)
let by_id a b = Int.(compare a b)
let by_weight x y = let open Float in compare x y
let heaviest_first l = List.sort (fun x y -> Float.(compare y x)) l
