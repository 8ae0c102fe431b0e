(* Type- and path-level classification for the typed analyses.

   Everything keys off names *after* typechecking: a mutable root is
   recognised by its type's head constructor (ref, array, Hashtbl.t, a
   record with mutable fields, ...), never by how the value is spelled
   at the use site. Paths arrive in two shapes depending on how dune
   compiled the unit — [Sim.Ctx.create] through the wrapper alias, or
   [Sim__Ctx.create] directly — so components are normalised by
   splitting "__" and dropping the [Stdlib] head, and lookups match on
   the last two components. *)

type key = string * string
(* (fully-dotted enclosing module, name): ("Sim.Ctx", "create"). The
   full prefix keeps same-named modules in different libraries apart
   (lib/sim/engine.ml vs lib/harness/fuzz/engine.ml both end in
   "Engine"); well-known heads (spawns, Hashtbl traversals, Ctx.create)
   are matched on the [short] suffix instead, since call sites may
   reach them through any alias chain. *)

let split_unit_name name =
  (* "Sim__Parallel" -> ["Sim"; "Parallel"]; "Dune__exe__Foo" -> ... *)
  let n = String.length name in
  let rec go acc start i =
    if i + 1 >= n then List.rev (String.sub name start (n - start) :: acc)
    else if name.[i] = '_' && name.[i + 1] = '_' && i > start then
      go (String.sub name start (i - start) :: acc) (i + 2) (i + 2)
    else go acc start (i + 1)
  in
  if n = 0 then [ name ] else go [] 0 0

let prefix_of_unit name = String.concat "." (split_unit_name name)

let rec flatten_path (p : Path.t) =
  match p with
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> flatten_path p @ [ s ]
  | Path.Papply (p, _) -> flatten_path p
  | Path.Pextra_ty (p, _) -> flatten_path p

let path_components p =
  let comps = List.concat_map split_unit_name (flatten_path p) in
  match comps with "Stdlib" :: rest when rest <> [] -> rest | _ -> comps

let key_of_components comps : key =
  match List.rev comps with
  | name :: rev_md -> (String.concat "." (List.rev rev_md), name)
  | [] -> ("", "")

let key_of_path p = key_of_components (path_components p)

let key_to_string (md, name) = if md = "" then name else md ^ "." ^ name

(* last module component + name: ("Sim.Ctx", "create") -> ("Ctx", "create") *)
let short ((md, name) : key) : key =
  match String.rindex_opt md '.' with
  | Some i -> (String.sub md (i + 1) (String.length md - i - 1), name)
  | None -> (md, name)

(* ---- spawn heads, iteration heads, rng draw heads ---- *)

let is_spawn_head key =
  match short key with
  | ("Parallel", ("map" | "map_seeds" | "map_ctx" | "run_sharded")) -> true
  | ("Domain", "spawn") | ("Thread", "create") -> true
  | _ -> false

let hashtbl_order_head key =
  (* Hashtbl traversals whose visit order follows the bucket layout. *)
  match short key with
  | ( "Hashtbl",
      (( "iter" | "fold" | "to_seq" | "to_seq_keys" | "to_seq_values"
       | "filter_map_inplace" ) as fn) ) ->
    Some fn
  | _ -> None

let is_sort_head key =
  match short key with
  | ("List", ("sort" | "sort_uniq" | "stable_sort" | "fast_sort")) -> true
  | _ -> false

let is_rng_draw_head key =
  (* Applying any of these consumes or forks a stream: position in the
     draw schedule now depends on when the call runs. *)
  match short key with
  | ("Rng", _) -> true
  | (("Ctx" | "Engine"), "fork_rng") -> true
  | ("Ctx", ("fork" | "with_seed")) -> true
  | _ -> false

let is_ctx_create key =
  match short key with ("Ctx", "create") -> true | _ -> false

(* ---- type classification ---- *)

type verdict =
  | Atomic_ok (* Atomic.t: the sanctioned cross-domain cell *)
  | Mutable of string (* shared-state root; payload describes it *)
  | Rngish of string (* RNG stream / engine / context *)
  | Func
  | Neutral

(* (module, type-name) -> description, for records with mutable fields
   declared anywhere in the analysed tree; built by Summary. *)
type record_table = (key, string) Hashtbl.t

(* [self] is the current unit's dotted module prefix: a bare [Tconstr]
   of a type declared in the same unit carries no module path, so the
   record-table lookup qualifies it with [self]. *)
let rec classify ?(depth = 0) ?(self = "") (records : record_table)
    (ty : Types.type_expr) =
  if depth > 4 then Neutral
  else
    match Types.get_desc ty with
    | Tarrow _ -> Func
    | Tpoly (ty, _) -> classify ~depth ~self records ty
    | Ttuple tys -> classify_first ~depth ~self records "tuple" tys
    | Tconstr (p, args, _) -> (
      let comps = path_components p in
      let key = key_of_components comps in
      match short key with
      | (_, "ref") when last_is comps "ref" -> Mutable "ref cell"
      | (_, "array") when last_is comps "array" -> Mutable "array"
      | (_, "bytes") when last_is comps "bytes" -> Mutable "mutable bytes"
      | ("Atomic", "t") -> Atomic_ok
      | ("Hashtbl", "t") -> Mutable "Hashtbl"
      | ("Queue", "t") -> Mutable "Queue"
      | ("Stack", "t") -> Mutable "Stack"
      | ("Buffer", "t") -> Mutable "Buffer"
      | ("Rng", "t") -> Rngish "RNG stream"
      | ("Engine", "t") -> Rngish "simulation engine"
      | ("Ctx", "t") -> Rngish "simulation context"
      | _ ->
        if box_like comps then
          classify_first ~depth ~self records (key_to_string key) args
        else (
          let qualified =
            match key with ("", name) -> (self, name) | k -> k
          in
          match Hashtbl.find_opt records qualified with
          | Some desc -> Mutable desc
          | None -> Neutral))
    | _ -> Neutral

and last_is comps name =
  match List.rev comps with c :: _ -> c = name | [] -> false

and box_like comps =
  (* containers we look through for a mutable/rng payload *)
  match List.rev comps with
  | [ ("list" | "option") ] -> true
  | "t" :: ("Seq" | "List" | "Option" | "Result" | "Either") :: _ -> true
  | _ -> false

and classify_first ~depth ~self records what tys =
  (* a tuple/list/option is only as shareable as its hottest component *)
  let verdicts = List.map (classify ~depth:(depth + 1) ~self records) tys in
  match
    List.find_opt (function Mutable _ | Rngish _ -> true | _ -> false) verdicts
  with
  | Some (Mutable d) -> Mutable (d ^ " inside a " ^ what)
  | Some (Rngish d) -> Rngish (d ^ " inside a " ^ what)
  | _ -> Neutral
