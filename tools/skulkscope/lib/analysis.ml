(* Pass B: per-unit emission, consulting the whole-tree tables.

   Spawn sites ([Sim.Parallel.map]/[map_seeds]/[map_ctx] incl. the
   [~seed_of] callback, [Domain.spawn], [Thread.create]) get a
   free-variable analysis of the spawned closure: every free name is
   classified by its *type* — Atomic is exempt, mutable roots fire
   escape-capture, RNG/engine/context fire rng-escape, local helper
   functions are expanded in place, and named toplevel functions are
   looked up in the pass-A summaries (escape-call when their transitive
   roots include module-level mutable state).

   Hashtbl-ordered callbacks get scanned for RNG draws (rng-order), and
   every application head is checked against the context rules:
   [Ctx.create] in lib/ fires ctx-minted, a call to a function that
   transitively mints fires ctx-launder.

   The same walk applies the per-expression rules: every identifier is
   matched by its resolved path (random-global, wall-clock,
   hashtbl-order, poly-compare, domain-spawn), every application by its
   head (float equality, the telemetry rules), every optional parameter
   by its label (ctx-discipline); module-level bindings are classified
   by type (toplevel-mutable, ctx-minted).

   Known holes (DESIGN.md §9): a closure built by partial application
   is not expanded; a minter passed as a value (not applied) escapes
   ctx-launder; bound-variable collection is scope-insensitive over the
   whole closure, so shadowing can only hide findings, never invent
   them. *)

open Lintkit

type ctxt = {
  t : Summary.tables;
  u : Summary.unit_info;
  local_defs : (Ident.t * Typedtree.expression) list;
  findings : Report.finding list ref;
  (* start offsets of [Hashtbl.fold] heads whose result goes straight
     into a sort *)
  sanctioned : (int, unit) Hashtbl.t;
}

let emit c (rule : Rules.rule) (loc : Location.t) fmt =
  Printf.ksprintf
    (fun message ->
      if rule.applies c.u.u_path then
        let pos = loc.loc_start in
        c.findings :=
          { Report.rule = rule.name; file = c.u.u_path;
            line = pos.pos_lnum; col = pos.pos_cnum - pos.pos_bol; message }
          :: !(c.findings))
    fmt

let rule name =
  match Rules.find_rule name with
  | Some r -> r
  | None -> invalid_arg ("skulkscope: unknown rule " ^ name)

let escape_capture = rule "escape-capture"
let escape_call = rule "escape-call"
let rng_escape = rule "rng-escape"
let rng_order = rule "rng-order"
let ctx_minted = rule "ctx-minted"
let ctx_launder = rule "ctx-launder"
let random_global = rule "random-global"
let wall_clock = rule "wall-clock"
let hashtbl_order = rule "hashtbl-order"
let poly_compare = rule "poly-compare"
let toplevel_mutable = rule "toplevel-mutable"
let domain_spawn = rule "domain-spawn"
let ctx_discipline = rule "ctx-discipline"
let counter_name = rule "counter-name"
let counter_monotonic = rule "counter-monotonic"
let sink_discipline = rule "sink-discipline"
let span_pairing = rule "span-pairing"

let key_of c (p : Path.t) =
  match p with
  | Path.Pident id -> Summary.resolve_pident c.t c.u id
  | _ -> Some (Classify.key_of_path p)

let head_key c (e : Typedtree.expression) =
  match e.exp_desc with Texp_ident (p, _, _) -> key_of c p | _ -> None

(* ---- free-variable collection over a closure ---- *)

type occurrences = {
  mutable bound : Ident.t list;
  mutable locals : (Ident.t * Types.type_expr * Location.t) list;
  mutable keys : (Classify.key * Location.t) list;
}

let collect_occurrences c (root : Typedtree.expression) =
  let o = { bound = []; locals = []; keys = [] } in
  let pat (type k) it (p : k Typedtree.general_pattern) =
    (match p.pat_desc with
    | Typedtree.Tpat_var (id, _) -> o.bound <- id :: o.bound
    | Typedtree.Tpat_alias (_, id, _) -> o.bound <- id :: o.bound
    | _ -> ());
    Tast_iterator.default_iterator.pat it p
  in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> (
      match Summary.resolve_pident c.t c.u id with
      | Some key -> o.keys <- (key, e.exp_loc) :: o.keys
      | None -> o.locals <- (id, e.exp_type, e.exp_loc) :: o.locals)
    | Texp_ident (p, _, _) -> o.keys <- (Classify.key_of_path p, e.exp_loc) :: o.keys
    | Texp_for (id, _, _, _, _, _) -> o.bound <- id :: o.bound
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with pat; expr } in
  it.Tast_iterator.expr it root;
  o

let find_local_def c id =
  List.find_map
    (fun (did, e) -> if Ident.same did id then Some e else None)
    c.local_defs

(* Free variables of [root], classified. Local helper functions are
   expanded recursively ([visited] breaks cycles); their captures count
   as captures of the spawned closure. *)
let rec analyze_closure c ~spawn ~visited (root : Typedtree.expression) =
  let o = collect_occurrences c root in
  let is_bound id = List.exists (Ident.same id) o.bound in
  let seen_locals = ref [] in
  List.iter
    (fun (id, ty, loc) ->
      if (not (is_bound id)) && not (List.exists (Ident.same id) !seen_locals)
      then begin
        seen_locals := id :: !seen_locals;
        let name = Ident.name id in
        match Classify.classify ~self:c.u.u_prefix c.t.records ty with
        | Classify.Atomic_ok | Classify.Neutral -> ()
        | Classify.Mutable desc ->
          emit c escape_capture loc
            "closure spawned via %s captures `%s` (%s) from the spawning \
             scope; every trial domain shares it — allocate per trial or use \
             Atomic"
            spawn name desc
        | Classify.Rngish desc ->
          emit c rng_escape loc
            "closure spawned via %s captures `%s` (%s) from the spawning \
             scope; the draw schedule would depend on domain interleaving — \
             fork a per-trial stream from the child ctx"
            spawn name desc
        | Classify.Func -> (
          match find_local_def c id with
          | Some body when not (List.exists (Ident.same id) visited) ->
            analyze_closure c ~spawn:(spawn ^ " (via local `" ^ name ^ "`)")
              ~visited:(id :: visited) body
          | _ -> ())
      end)
    (List.rev o.locals);
  let seen_keys = ref [] in
  List.iter
    (fun (key, loc) ->
      if not (List.mem key !seen_keys) then begin
        seen_keys := key :: !seen_keys;
        let name = Classify.key_to_string key in
        (match Hashtbl.find_opt c.t.global_mutables key with
        | Some desc ->
          emit c escape_capture loc
            "closure spawned via %s uses module-level `%s` (%s); state that \
             outlives the trial is shared by every domain"
            spawn name desc
        | None -> ());
        (match Hashtbl.find_opt c.t.global_rngs key with
        | Some desc ->
          emit c rng_escape loc
            "closure spawned via %s uses module-level `%s` (%s); a shared \
             stream makes the draw schedule depend on interleaving"
            spawn name desc
        | None -> ());
        match Hashtbl.find_opt c.t.functions key with
        | Some (s : Summary.fn_summary) -> (
          match s.roots with
          | (rkey, desc) :: _ ->
            emit c escape_call loc
              "closure spawned via %s calls `%s`, which transitively reaches \
               module-level `%s` (%s)"
              spawn name
              (Classify.key_to_string rkey)
              desc
          | [] -> ())
        | None -> ()
      end)
    (List.rev o.keys)

(* ---- spawn sites ---- *)

let rec strip_option_wrap (e : Typedtree.expression) =
  (* optional-labelled args arrive wrapped in [Some _] *)
  match e.exp_desc with
  | Texp_construct (_, { cstr_name = "Some"; _ }, [ inner ]) ->
    strip_option_wrap inner
  | _ -> e

let is_function_expr c (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function _ -> true
  | _ -> ( match Classify.classify ~self:c.u.u_prefix c.t.records e.exp_type with
    | Classify.Func -> true
    | _ -> false)

let analyze_spawned c ~spawn (e : Typedtree.expression) =
  let e = strip_option_wrap e in
  match e.exp_desc with
  | Texp_function _ -> analyze_closure c ~spawn ~visited:[] e
  | Texp_ident (Path.Pident id, _, _) -> (
    match Summary.resolve_pident c.t c.u id with
    | Some key -> (
      match Hashtbl.find_opt c.t.functions key with
      | Some (s : Summary.fn_summary) -> (
        match s.roots with
        | (rkey, desc) :: _ ->
          emit c escape_call e.exp_loc
            "`%s` runs in spawned domains (via %s) and transitively reaches \
             module-level `%s` (%s)"
            (Classify.key_to_string key)
            spawn
            (Classify.key_to_string rkey)
            desc
        | [] -> ())
      | None -> ())
    | None -> (
      (* a local let-bound closure: expand its definition *)
      match find_local_def c id with
      | Some body -> analyze_closure c ~spawn ~visited:[ id ] body
      | None -> ()))
  | Texp_ident (p, _, _) -> (
    let key = Classify.key_of_path p in
    match Hashtbl.find_opt c.t.functions key with
    | Some (s : Summary.fn_summary) -> (
      match s.roots with
      | (rkey, desc) :: _ ->
        emit c escape_call e.exp_loc
          "`%s` runs in spawned domains (via %s) and transitively reaches \
           module-level `%s` (%s)"
          (Classify.key_to_string key)
          spawn
          (Classify.key_to_string rkey)
          desc
      | [] -> ())
    | None -> ())
  | _ -> () (* partial applications etc.: a known hole *)

let label_name = function
  | Asttypes.Nolabel -> None
  | Asttypes.Labelled s | Asttypes.Optional s -> Some s

let handle_spawn c key args =
  let spawn = Classify.key_to_string key in
  List.iter
    (fun (label, arg) ->
      match arg with
      | None -> ()
      | Some (a : Typedtree.expression) -> (
        match label_name label with
        | None -> if is_function_expr c a then analyze_spawned c ~spawn a
        | Some "seed_of" ->
          analyze_spawned c ~spawn:(spawn ^ " ~seed_of") a
        | Some _ -> () (* ~jobs, ~ctx, ~trials: not run in workers *)))
    args

(* ---- RNG under Hashtbl order ---- *)

let handle_hashtbl c fn args =
  let scan (body : Typedtree.expression) =
    let seen = ref [] in
    let expr it (e : Typedtree.expression) =
      (match e.exp_desc with
      | Texp_apply (head, _) -> (
        match head_key c head with
        | Some k
          when Classify.is_rng_draw_head k
               && not (List.mem head.exp_loc !seen) ->
          seen := head.exp_loc :: !seen;
          emit c rng_order head.exp_loc
            "`%s` consumed inside `Hashtbl.%s`: the draw order follows \
             hash-bucket order, which varies with insertion history — fold \
             over sorted keys instead"
            (Classify.key_to_string k) fn
        | _ -> ())
      | _ -> ());
      Tast_iterator.default_iterator.expr it e
    in
    let it = { Tast_iterator.default_iterator with expr } in
    it.Tast_iterator.expr it body
  in
  List.iter
    (fun (label, arg) ->
      match (label, arg) with
      | Asttypes.Nolabel, Some (a : Typedtree.expression)
        when is_function_expr c a -> (
        match a.exp_desc with
        | Texp_function _ -> scan a
        | Texp_ident (Path.Pident id, _, _)
          when Summary.resolve_pident c.t c.u id = None -> (
          match find_local_def c id with Some body -> scan body | None -> ())
        | _ -> ())
      | _ -> ())
    args

(* ---- the per-unit walk ---- *)

let collect_local_defs (str : Typedtree.structure) =
  let defs = ref [] in
  let value_binding it (vb : Typedtree.value_binding) =
    (match vb.vb_pat.pat_desc with
    | Tpat_var (id, _) -> defs := (id, vb.vb_expr) :: !defs
    | _ -> ());
    Tast_iterator.default_iterator.value_binding it vb
  in
  let it = { Tast_iterator.default_iterator with value_binding } in
  it.Tast_iterator.structure it str;
  !defs

(* Module-level bindings, classified by type: mutable state in lib/ is
   shared by every trial domain; a Ctx/Engine/Rng is minted state that
   should arrive as a parameter. Same nesting discipline as pass A:
   descend into modules, not into expressions. *)
let check_module_level c =
  let on_item ~prefix (item : Typedtree.structure_item) =
    match item.str_desc with
    | Tstr_value (_, vbs) ->
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          List.iter
            (fun (id, ty, loc) ->
              match Classify.classify ~self:prefix c.t.records ty with
              | Classify.Mutable desc ->
                emit c toplevel_mutable loc
                  "module-level `%s` has mutable type (%s), shared by every \
                   Sim.Parallel trial domain; move it into the per-trial \
                   state it belongs to, or use Atomic if a cross-domain \
                   counter is really intended"
                  (Ident.name id) desc
              | Classify.Rngish desc ->
                emit c ctx_minted loc
                  "module-level `%s` holds a %s; mint contexts at entry \
                   points and thread them down as parameters"
                  (Ident.name id) desc
              | _ -> ())
            (Summary.binding_vars vb.vb_pat))
        vbs
    | _ -> ()
  in
  Summary.walk_module_level ~prefix:c.u.u_prefix ~on_item c.u.u_structure

(* ---- per-expression rules ---- *)

(* [Some name] for a value of the standard library itself
   ([Stdlib.compare], [Stdlib.( = )], [Stdlib.( ~- )]); a same-named
   binding anywhere else resolves to a different path. *)
let stdlib_value (p : Path.t) =
  match p with
  | Path.Pdot (Path.Pident m, name) when Ident.name m = "Stdlib" -> Some name
  | _ -> None

(* The identifier an expression is, or applies, with its location. The
   typechecker turns [x |> f a] into [(f a) x], so look through nested
   applications. *)
let rec applied (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply (h, _) -> applied h
  | Texp_ident (p, _, _) -> Some (p, e.exp_loc)
  | _ -> None

let offset (loc : Location.t) = loc.loc_start.pos_cnum

let check_ident c (p : Path.t) loc =
  let key = Classify.key_of_path p in
  match (stdlib_value p, Classify.path_components p) with
  | Some "compare", _ ->
    emit c poly_compare loc
      "Stdlib.compare diverges on floats (nan) and mutable structure; use \
       the typed Int.compare / String.compare / Float.compare"
  | _, "Random" :: what :: _ ->
    emit c random_global loc
      "Random.%s is process-global and not seeded per trial; draw from \
       Sim.Rng instead"
      what
  | _, [ "Sys"; "time" ] ->
    emit c wall_clock loc
      "Sys.time reads the host clock; use sim time (Sim.Engine.now), or \
       allow it with a reason if this really measures the simulator itself"
  | _, [ "Unix"; (("gettimeofday" | "time" | "gmtime" | "localtime") as f) ] ->
    emit c wall_clock loc
      "Unix.%s reads the host clock; use sim time (Sim.Engine.now)" f
  | _ -> (
    if Classify.is_spawn_head key && fst (Classify.short key) <> "Parallel"
    then
      emit c domain_spawn loc
        "raw %s: all fan-out goes through Sim.Parallel so trials stay \
         deterministic and merge in order"
        (Classify.key_to_string (Classify.short key));
    match Classify.hashtbl_order_head key with
    | Some fn when not (Hashtbl.mem c.sanctioned (offset loc)) ->
      emit c hashtbl_order loc
        "Hashtbl.%s observes hash-bucket order; pipe a fold straight into \
         List.sort (fold ... [] |> List.sort cmp) or iterate a sorted key \
         list"
        fn
    | _ -> ())

(* [Hashtbl.fold ... |> List.sort cmp] and [List.sort cmp (Hashtbl.fold
   ...)] type to the same application: a sort whose positional argument
   is the fold. Mark the fold as sanctioned before the walk reaches it. *)
let sanction_sorted_folds c (head : Typedtree.expression) args =
  let is_sort =
    match applied head with
    | Some (p, _) -> Classify.is_sort_head (Classify.key_of_path p)
    | None -> false
  in
  if is_sort then
    List.iter
      (function
        | Asttypes.Nolabel, Some a -> (
          match applied a with
          | Some (p, loc)
            when Classify.short (Classify.key_of_path p) = ("Hashtbl", "fold") ->
            Hashtbl.replace c.sanctioned (offset loc) ()
          | _ -> ())
        | _ -> ())
      args

let is_float_literal (e : Typedtree.expression) =
  match e.exp_desc with Texp_constant (Const_float _) -> true | _ -> false

let is_negative_constant (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_constant (Const_int n) -> n < 0
  | Texp_constant (Const_float s) -> String.length s > 0 && s.[0] = '-'
  | Texp_apply
      ( { exp_desc = Texp_ident (p, _, _); _ },
        [ (Asttypes.Nolabel, Some { exp_desc = Texp_constant _; _ }) ] ) -> (
    match stdlib_value p with Some ("~-" | "~-.") -> true | _ -> false)
  | _ -> false

let ends_with ~suffix s =
  let n = String.length s and m = String.length suffix in
  n >= m && String.sub s (n - m) m = suffix

let check_metric_name c loc kind name =
  if String.equal kind "counter" then begin
    if not (ends_with ~suffix:"_total" name) then
      emit c counter_name loc
        "counter %S should be named *_total (Prometheus convention; \
         exporters sort by name)"
        name
  end
  else if ends_with ~suffix:"_total" name then
    emit c counter_name loc "%s %S must not use the counter suffix _total"
      kind name
  else if
    (String.equal kind "summary" || String.equal kind "histogram")
    && List.exists (fun s -> ends_with ~suffix:s name) [ "_sum"; "_count"; "_bucket" ]
  then
    emit c counter_name loc
      "%s %S ends in a reserved exporter suffix (_sum/_count/_bucket): the \
       exposition format appends those to the series itself"
      kind name

(* Float equality and the telemetry API, matched on the head's path;
   [loc] is the whole application's. *)
let check_apply c ~loc (head : Typedtree.expression) args =
  match head.exp_desc with
  | Texp_ident (p, _, _) -> (
    let positional =
      List.filter_map
        (function Asttypes.Nolabel, Some a -> Some a | _ -> None)
        args
    in
    (match stdlib_value p with
    | Some ("=" | "<>") when List.exists is_float_literal positional ->
      emit c poly_compare head.exp_loc
        "polymorphic equality against a float literal; use Float.equal (or \
         compare against an epsilon)"
    | _ -> ());
    match Classify.short (Classify.key_of_path p) with
    | ("Telemetry", (("counter" | "gauge" | "histogram" | "summary") as kind)) -> (
      let last_string =
        List.fold_left
          (fun acc (a : Typedtree.expression) ->
            match a.exp_desc with
            | Texp_constant (Const_string (s, _, _)) -> Some s
            | _ -> acc)
          None positional
      in
      match last_string with
      | Some name -> check_metric_name c loc kind name
      | None -> ())
    | ("Telemetry", ("add" | "addf")) ->
      if List.exists is_negative_constant positional then
        emit c counter_monotonic loc
          "counters are monotonic: never add a negative delta \
           (Telemetry.add raises on it at runtime anyway)"
    | ("Telemetry", "create") ->
      if Rules.lib_only c.u.u_path then
        emit c sink_discipline loc
          "Telemetry.create inside lib/: sinks are created at entry points \
           and threaded down; per-trial sinks come from create_like"
    | ("Telemetry", "merge_into") ->
      if c.u.u_path <> "lib/sim/parallel.ml"
         && c.u.u_path <> "lib/sim/telemetry.ml"
      then
        emit c sink_discipline loc
          "sink merging happens only in Sim.Parallel, in trial order, so \
           exports stay byte-identical across --jobs"
    | ("Telemetry", "span") -> (
      let bound label =
        List.find_map
          (function
            | ( Asttypes.Labelled l,
                Some { Typedtree.exp_desc = Texp_ident (Path.Pident id, _, _); _ } )
              when String.equal l label ->
              Some id
            | _ -> None)
          args
      in
      match (bound "start", bound "stop") with
      | Some a, Some b when Ident.same a b ->
        emit c span_pairing loc
          "span records ~start:%s ~stop:%s — a zero-width span; capture the \
           start time before the work and the stop time after"
          (Ident.name a) (Ident.name b)
      | Some a, _ when Summary.resolve_pident c.t c.u a <> None ->
        emit c span_pairing loc
          "span start %S is not bound in this definition: begin/end are \
           split across functions; capture both sides of the interval in \
           one place (or use with_span)"
          (Ident.name a)
      | _ -> ())
    | _ -> ())
  | _ -> ()

let run (t : Summary.tables) (u : Summary.unit_info) : Report.finding list =
  let c =
    { t; u; local_defs = collect_local_defs u.u_structure; findings = ref [];
      sanctioned = Hashtbl.create 16 }
  in
  check_module_level c;
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> check_ident c p e.exp_loc
    | Texp_function { arg_label = Optional (("telemetry" | "faults") as name); _ } ->
      emit c ctx_discipline e.exp_loc
        "optional ?%s on a lib/ function: it rides in the Sim.Ctx the caller \
         threads down (Ctx.create ~%s / Ctx.with_telemetry), not in a \
         per-constructor optional"
        name name
    | Texp_apply (head, args) -> (
      sanction_sorted_folds c head args;
      check_apply c ~loc:e.exp_loc head args;
      match head_key c head with
      | Some key ->
        if Classify.is_spawn_head key then handle_spawn c key args;
        (match Classify.hashtbl_order_head key with
        | Some fn -> handle_hashtbl c fn args
        | None -> ());
        if Classify.is_ctx_create key then
          emit c ctx_minted head.exp_loc
            "Ctx.create in lib/: contexts are minted at entry points and \
             passed down (derive per-trial state with Ctx.fork / with_seed)"
        else (
          match Hashtbl.find_opt t.functions key with
          | Some (s : Summary.fn_summary) when s.mints ->
            emit c ctx_launder head.exp_loc
              "`%s` transitively applies Ctx.create; a wrapper does not \
               launder context provenance — accept a Ctx.t parameter instead"
              (Classify.key_to_string key)
          | _ -> ())
      | None -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.Tast_iterator.structure it u.u_structure;
  (* one report per (rule, line): a toplevel [let c = Ctx.create 0] is
     both a minted application and a module-level rng value — say it once *)
  let sorted = Report.sort !(c.findings) in
  let rec dedupe = function
    | a :: b :: rest
      when a.Report.rule = b.Report.rule
           && a.Report.file = b.Report.file
           && a.Report.line = b.Report.line ->
      dedupe (a :: rest)
    | a :: rest -> a :: dedupe rest
    | [] -> []
  in
  dedupe sorted
