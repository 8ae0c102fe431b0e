(* Self-tests for skulkscope: every rule fires on its known-bad corpus
   unit at the expected line, the known-good corpus is silent, path
   scoping and both allow mechanisms behave, and two runs over the same
   units produce byte-identical reports. The corpus compiles for real
   against sim, so these load genuine .cmt typedtrees; path-scoped
   rules are exercised by loading units under synthetic lib/-style
   paths. *)

open Skulkscope_core
open Lintkit

let read = Driver.read_file

(* Load one corpus unit under a synthetic path (default lib/scope/).
   [source] overrides the unit text handed to the allow scanner, for
   the stale/reasonless-allow tests. *)
let load ?path ?source ~kind name =
  let cmt =
    Printf.sprintf "corpus/%s/.scope_corpus_%s.objs/byte/scope_corpus_%s__%s.cmt"
      kind kind kind (String.capitalize_ascii name)
  in
  let source =
    match source with
    | Some s -> s
    | None -> read (Printf.sprintf "corpus/%s/%s.ml" kind name)
  in
  let path =
    match path with Some p -> p | None -> "lib/scope/" ^ name ^ ".ml"
  in
  match Driver.load_cmt ~path ~source cmt with
  | Ok u -> u
  | Error msg -> Alcotest.failf "load_cmt %s: %s" name msg

(* Every unit of one corpus, by module file name. *)
let corpus kind =
  Sys.readdir ("corpus/" ^ kind)
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ml")
  |> List.map Filename.remove_extension
  |> List.sort String.compare

let lint_bad () = Driver.lint_units (List.map (load ~kind:"bad") (corpus "bad"))

let brief (f : Report.finding) =
  Printf.sprintf "%s:%d %s" f.file f.line f.rule

let check_briefs name expected (r : Driver.result) =
  Alcotest.(check (list string)) name expected (List.map brief r.findings)

let rules_of (r : Driver.result) =
  List.map (fun (f : Report.finding) -> f.rule) r.findings

(* ---- bad corpus: every defect reported exactly once, with its line ---- *)

let expected_bad =
  [ "lib/scope/bad_allow.ml:5 allow-syntax";
    "lib/scope/bad_allow.ml:6 wall-clock";
    "lib/scope/bad_allow.ml:8 allow-unused";
    "lib/scope/bad_ctx_discipline.ml:7 ctx-discipline";
    "lib/scope/bad_ctx_discipline.ml:11 ctx-discipline";
    "lib/scope/bad_ctx_launder.ml:5 ctx-launder";
    "lib/scope/bad_ctx_minted.ml:6 ctx-minted";
    "lib/scope/bad_ctx_minted.ml:9 ctx-minted";
    "lib/scope/bad_domain_spawn.ml:2 domain-spawn";
    "lib/scope/bad_escape_call.ml:5 toplevel-mutable";
    "lib/scope/bad_escape_call.ml:11 escape-call";
    "lib/scope/bad_escape_capture.ml:7 toplevel-mutable";
    "lib/scope/bad_escape_capture.ml:12 escape-capture";
    "lib/scope/bad_escape_capture.ml:18 escape-capture";
    "lib/scope/bad_escape_capture.ml:23 escape-capture";
    "lib/scope/bad_hashtbl_order.ml:2 hashtbl-order";
    "lib/scope/bad_hashtbl_order.ml:3 hashtbl-order";
    "lib/scope/bad_hashtbl_order.ml:6 hashtbl-order";
    "lib/scope/bad_poly_compare.ml:2 poly-compare";
    "lib/scope/bad_poly_compare.ml:3 poly-compare";
    "lib/scope/bad_poly_compare.ml:4 poly-compare";
    "lib/scope/bad_random.ml:2 random-global";
    "lib/scope/bad_random.ml:3 random-global";
    "lib/scope/bad_rng_order.ml:7 hashtbl-order";
    "lib/scope/bad_rng_order.ml:7 rng-order";
    "lib/scope/bad_rng_two_domains.ml:7 rng-escape";
    "lib/scope/bad_rng_two_domains.ml:8 rng-escape";
    "lib/scope/bad_shard_mailbox.ml:16 escape-capture";
    "lib/scope/bad_span.ml:5 span-pairing";
    "lib/scope/bad_span.ml:9 span-pairing";
    "lib/scope/bad_telemetry.ml:4 counter-name";
    "lib/scope/bad_telemetry.ml:5 counter-name";
    "lib/scope/bad_telemetry.ml:6 counter-name";
    "lib/scope/bad_telemetry.ml:7 counter-name";
    "lib/scope/bad_telemetry.ml:8 counter-monotonic";
    "lib/scope/bad_telemetry.ml:9 sink-discipline";
    "lib/scope/bad_telemetry.ml:10 sink-discipline";
    "lib/scope/bad_toplevel_mutable.ml:3 toplevel-mutable";
    "lib/scope/bad_toplevel_mutable.ml:4 toplevel-mutable";
    "lib/scope/bad_toplevel_mutable.ml:7 toplevel-mutable";
    "lib/scope/bad_toplevel_mutable.ml:10 toplevel-mutable";
    "lib/scope/bad_wall_clock.ml:2 wall-clock";
    "lib/scope/bad_wall_clock.ml:3 wall-clock";
    "lib/scope/bad_wall_clock.ml:4 wall-clock" ]

let bad_tests =
  [
    Alcotest.test_case "all seeded defects, once each, at their lines" `Quick
      (fun () ->
        let r = lint_bad () in
        check_briefs "findings" expected_bad r;
        Alcotest.(check int) "nothing suppressed" 0 r.suppressed;
        Alcotest.(check int) "every unit" (List.length (corpus "bad"))
          r.files_scanned);
    Alcotest.test_case "every catalogue rule fires on the bad corpus" `Quick
      (fun () ->
        let fired = rules_of (lint_bad ()) in
        List.iter
          (fun (rule : Rules.rule) ->
            if not (List.mem rule.name fired) then
              Alcotest.failf "rule %s never fires on the corpus" rule.name)
          Rules.catalogue);
    Alcotest.test_case "determinism: two runs, identical reports" `Quick
      (fun () ->
        let a = lint_bad () and b = lint_bad () in
        Alcotest.(check (list string)) "reports"
          (List.map (Format.asprintf "%a" Report.pp_human) a.findings)
          (List.map (Format.asprintf "%a" Report.pp_human) b.findings));
  ]

(* ---- one corpus unit under chosen paths ----

   Each row: case name, corpus unit (its prefix names the corpus), the
   paths it is linted under, and the rules it must report there, in
   order. The line-level expectations live in [expected_bad]; these rows
   pin each unit's rule multiplicity and the path scoping of the rules. *)

let times n rule = List.init n (fun _ -> rule)

(* bad_telemetry outside lib/: everything but the sink creation *)
let telemetry_outside_lib =
  times 4 "counter-name" @ [ "counter-monotonic"; "sink-discipline" ]

let bad_rows =
  [ ("random-global fires twice", "bad_random",
     [ "lib/sim/bad_random.ml" ], times 2 "random-global");
    ("wall-clock fires three times", "bad_wall_clock",
     [ "lib/sim/bad_wall_clock.ml" ], times 3 "wall-clock");
    ("hashtbl-order: iter, bare fold, late sort", "bad_hashtbl_order",
     [ "lib/vmm/bad_hashtbl_order.ml" ], times 3 "hashtbl-order");
    ("poly-compare: bare, Stdlib, float literal", "bad_poly_compare",
     [ "lib/sim/bad_poly_compare.ml" ], times 3 "poly-compare");
    ("toplevel-mutable fires in lib/, incl. submodules", "bad_toplevel_mutable",
     [ "lib/vmm/bad_toplevel_mutable.ml" ], times 4 "toplevel-mutable");
    ("toplevel-mutable is scoped to lib/", "bad_toplevel_mutable",
     [ "bench/bad_toplevel_mutable.ml" ], []);
    ("domain-spawn fires outside Sim.Parallel", "bad_domain_spawn",
     [ "lib/workload/bad_domain_spawn.ml" ], [ "domain-spawn" ]);
    ("domain-spawn exempts lib/sim/parallel.ml", "bad_domain_spawn",
     [ "lib/sim/parallel.ml" ], []);
    ("telemetry discipline: seven findings", "bad_telemetry",
     [ "lib/net/bad_telemetry.ml" ], telemetry_outside_lib @ [ "sink-discipline" ]);
    ("sink creation is allowed outside lib/", "bad_telemetry",
     [ "bench/bad_telemetry.ml" ], telemetry_outside_lib);
    ("ctx-discipline: ?telemetry and ?faults, not ?fault", "bad_ctx_discipline",
     [ "lib/vmm/bad_ctx_discipline.ml" ], times 2 "ctx-discipline");
    ("ctx-discipline exempts lib/sim/ and non-lib paths", "bad_ctx_discipline",
     [ "lib/sim/ctx.ml"; "bench/bad_ctx_discipline.ml" ], []);
    ("span-pairing: zero-width and split", "bad_span",
     [ "lib/net/bad_span.ml" ], times 2 "span-pairing");
    ("reasonless allow does not suppress; stale allow flagged", "bad_allow",
     [ "lib/sim/bad_allow.ml" ], [ "allow-syntax"; "wall-clock"; "allow-unused" ]) ]

let good_rows =
  [ ("sorted folds, Sim.Rng, typed compares", "good_determinism", [ "lib/sim/good.ml" ], []);
    ("local compare definition excuses bare uses", "good_local_compare",
     [ "lib/sim/good.ml" ], []);
    ("atomic + per-instance state in lib/", "good_domain_state", [ "lib/sim/good.ml" ], []);
    ("telemetry discipline followed", "good_telemetry", [ "lib/sim/good.ml" ], []) ]

let unit_case (name, unit_name, paths, expected) =
  let kind = String.sub unit_name 0 (String.index unit_name '_') in
  Alcotest.test_case name `Quick (fun () ->
      List.iter
        (fun path ->
          Alcotest.(check (list string)) path expected
            (rules_of (Driver.lint_units [ load ~kind ~path unit_name ])))
        paths)

(* ---- path scoping of the typed rules ---- *)

let scope_tests =
  [
    Alcotest.test_case "escape rules exempt lib/sim/parallel.ml" `Quick
      (fun () ->
        let u = load ~kind:"bad" ~path:"lib/sim/parallel.ml" "bad_escape_capture" in
        (* toplevel-mutable still applies there; the escapes do not *)
        check_briefs "escapes silent" [ "lib/sim/parallel.ml:7 toplevel-mutable" ]
          (Driver.lint_units [ u ]));
    Alcotest.test_case "ctx-minted is scoped to lib/" `Quick (fun () ->
        let u = load ~kind:"bad" ~path:"bench/bad_ctx_minted.ml" "bad_ctx_minted" in
        check_briefs "bench exempt" [] (Driver.lint_units [ u ]));
    Alcotest.test_case "ctx-minted exempts lib/sim/" `Quick (fun () ->
        let u = load ~kind:"bad" ~path:"lib/sim/bad_ctx_minted.ml" "bad_ctx_minted" in
        check_briefs "sim exempt" [] (Driver.lint_units [ u ]));
    Alcotest.test_case "ctx-launder is scoped to lib/" `Quick (fun () ->
        let launder = load ~kind:"bad" ~path:"bench/helper.ml" "bad_ctx_launder" in
        let minted = load ~kind:"bad" "bad_ctx_minted" in
        let r = Driver.lint_units [ launder; minted ] in
        let in_bench =
          List.filter (fun (f : Report.finding) -> f.file = "bench/helper.ml")
            r.findings
        in
        Alcotest.(check (list string)) "bench exempt" []
          (List.map brief in_bench));
  ]

(* ---- good corpus & allow machinery ---- *)

let wall_clock_under path entries =
  Driver.lint_units ~allow_entries:entries [ load ~kind:"bad" ~path "bad_wall_clock" ]

let allow_tests =
  [
    Alcotest.test_case "good corpus: silent, one reasoned allow used" `Quick
      (fun () ->
        let r = Driver.lint_units (List.map (load ~kind:"good") (corpus "good")) in
        check_briefs "no findings" [] r;
        (* good_allow carries one allow, good_allow_clock two *)
        Alcotest.(check int) "each allow suppresses once" 3 r.suppressed);
    Alcotest.test_case "lint.allow subtree entry suppresses" `Quick (fun () ->
        let entries, errors =
          Allow.parse_allow_file
            "lib/scope/ escape-capture corpus-wide policy exemption\n"
        in
        Alcotest.(check int) "no parse errors" 0 (List.length errors);
        let u = load ~kind:"bad" "bad_escape_capture" in
        let r = Driver.lint_units ~allow_entries:entries [ u ] in
        check_briefs "suppressed" [ "lib/scope/bad_escape_capture.ml:7 toplevel-mutable" ] r;
        Alcotest.(check int) "three dropped" 3 r.suppressed);
    Alcotest.test_case "stale allow is itself a finding" `Quick (fun () ->
        let u =
          load ~kind:"good" "good_immutable"
            ~source:"(* skulkscope: allow rng-order \xe2\x80\x94 never fires here *)\n"
        in
        check_briefs "allow-unused"
          [ "lib/scope/good_immutable.ml:1 allow-unused" ]
          (Driver.lint_units [ u ]));
    Alcotest.test_case "reasonless allow is itself a finding" `Quick (fun () ->
        let u =
          load ~kind:"good" "good_immutable"
            ~source:"(* skulkscope: allow escape-capture *)\n"
        in
        check_briefs "allow-syntax"
          [ "lib/scope/good_immutable.ml:1 allow-syntax" ]
          (Driver.lint_units [ u ]));
  ]

let good_allow_test =
  Alcotest.test_case "allow with reason suppresses cleanly" `Quick (fun () ->
      let r =
        Driver.lint_units [ load ~kind:"good" ~path:"lib/sim/good_allow.ml" "good_allow_clock" ]
      in
      check_briefs "no findings" [] r;
      Alcotest.(check int) "two suppressed" 2 r.suppressed)

let allow_file_tests =
  [
    Alcotest.test_case "entry suppresses by exact path" `Quick (fun () ->
        let entries, errors =
          Allow.parse_allow_file "lib/sim/x.ml wall-clock calibration reads the host clock\n"
        in
        Alcotest.(check int) "no parse errors" 0 (List.length errors);
        let r = wall_clock_under "lib/sim/x.ml" entries in
        check_briefs "suppressed" [] r;
        Alcotest.(check int) "all three suppressed" 3 r.suppressed);
    Alcotest.test_case "trailing-slash entry covers the subtree" `Quick (fun () ->
        let entries, _ = Allow.parse_allow_file "bench/ wall-clock bench measures wall time\n" in
        check_briefs "subtree suppressed" [] (wall_clock_under "bench/deep/x.ml" entries);
        Alcotest.(check (list string)) "other paths still fire"
          [ "wall-clock"; "wall-clock"; "wall-clock" ]
          (rules_of (wall_clock_under "lib/sim/x.ml" entries)));
    Alcotest.test_case "entry without a reason is a syntax error" `Quick (fun () ->
        let entries, errors = Allow.parse_allow_file "lib/sim/x.ml wall-clock\n" in
        Alcotest.(check int) "no entry" 0 (List.length entries);
        Alcotest.(check int) "one error" 1 (List.length errors));
    Alcotest.test_case "comments and blanks are skipped" `Quick (fun () ->
        let entries, errors = Allow.parse_allow_file "# header\n\n# another\n" in
        Alcotest.(check int) "no entries" 0 (List.length entries);
        Alcotest.(check int) "no errors" 0 (List.length errors));
  ]

(* ---- the linter on one unit at a time ----

   The whole-corpus checks above lint every unit in one batch; these lint
   each unit on its own, under its lib/-style path, as a per-file run
   would. A unit whose rule is interprocedural runs with the corpus units
   it calls: ctx-launder needs the summary of bad_ctx_minted. *)

let callees = [ ("bad_ctx_launder", [ "bad_ctx_minted" ]) ]

let lint_each kind =
  List.map
    (fun name ->
      let deps = Option.value ~default:[] (List.assoc_opt name callees) in
      Driver.lint_units (List.map (load ~kind) (name :: deps)))
    (corpus kind)

let meta_tests =
  [
    Alcotest.test_case "linting is deterministic" `Quick (fun () ->
        let once () =
          List.map
            (fun (r : Driver.result) ->
              List.map (Format.asprintf "%a" Report.pp_human) r.findings)
            (lint_each "bad" @ lint_each "good")
        in
        Alcotest.(check (list (list string))) "two runs agree" (once ()) (once ()));
    Alcotest.test_case "every catalogue rule is exercised by the bad corpus" `Quick
      (fun () ->
        let fired = List.concat_map rules_of (lint_each "bad") in
        List.iter
          (fun (rule : Rules.rule) ->
            Alcotest.(check bool)
              (Printf.sprintf "rule %s fires somewhere" rule.name)
              true (List.mem rule.name fired))
          Rules.catalogue);
  ]

(* Two suites: the whole-corpus checks, then the per-unit cases. A
   failure in the first raises instead of exiting, so both still gate. *)
let () =
  Alcotest.run ~and_exit:false "skulkscope"
    [ ("bad corpus", bad_tests); ("scoping", scope_tests); ("allows", allow_tests) ];
  Alcotest.run "skulkscope-units"
    [ ("bad-corpus", List.map unit_case bad_rows);
      ("good-corpus", List.map unit_case good_rows @ [ good_allow_test ]);
      ("allow-file", allow_file_tests);
      ("meta", meta_tests) ]
