(* corpus: module-level mutable state (linted under a lib/ path) — four
   findings, including one nested in a submodule and an array literal. *)
let cache : (string, int) Hashtbl.t = Hashtbl.create 16
let hits = ref 0

module Inner = struct
  let scratch = Buffer.create 80
end

let weights = [| 0.5; 0.25; 0.25 |]
