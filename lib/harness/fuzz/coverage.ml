type t = { hits : (string, int ref) Hashtbl.t }

let create () = { hits = Hashtbl.create 256 }

let add t feats =
  List.fold_left
    (fun fresh f ->
      match Hashtbl.find_opt t.hits f with
      | Some r ->
        incr r;
        fresh
      | None ->
        Hashtbl.add t.hits f (ref 1);
        fresh + 1)
    0 feats

let distinct t = Hashtbl.length t.hits

let features t =
  Hashtbl.fold (fun f r acc -> (f, !r) :: acc) t.hits []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let bucket v =
  if v <= 0. then 0
  else
    let b = 1 + int_of_float (Float.floor (Float.log2 v)) in
    max 0 (min 62 b)

(* FNV-1a 64-bit: tiny, allocation-free, and - unlike [Hashtbl.hash] -
   specified here, so corpus signatures survive compiler upgrades. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_byte h c = Int64.mul (Int64.logxor h (Int64.of_int c)) fnv_prime

let fnv_string h s =
  let h = ref h in
  String.iter (fun c -> h := fnv_byte !h (Char.code c)) s;
  !h

let path_signature feats =
  List.fold_left (fun h f -> fnv_byte (fnv_string h f) (Char.code '\n')) fnv_offset feats

let hex s = Printf.sprintf "%016Lx" s
