(* Tests for the skulkfuzz library: program grammar roundtrips and
   mutation validity, coverage signature semantics, engine determinism
   (same seed twice, and --jobs 1 vs 4), the guided-beats-random
   coverage contract, and byte-exact replay of the checked-in corpus
   under test/corpus/. *)

let program_strings ps = List.map Fuzz.Program.to_string ps

let check_stats_equal (a : Fuzz.Engine.stats) (b : Fuzz.Engine.stats) =
  Alcotest.(check int) "executed" a.Fuzz.Engine.executed b.Fuzz.Engine.executed;
  Alcotest.(check (list string)) "corpus" (program_strings a.corpus) (program_strings b.corpus);
  Alcotest.(check int) "guided features" a.guided_features b.guided_features;
  Alcotest.(check int) "guided signatures" a.guided_signatures b.guided_signatures;
  Alcotest.(check int) "random features" a.random_features b.random_features;
  Alcotest.(check int) "random signatures" a.random_signatures b.random_signatures;
  Alcotest.(check (list string)) "finds"
    (List.map (fun f -> Fuzz.Program.to_string f.Fuzz.Engine.find_program) a.finds)
    (List.map (fun f -> Fuzz.Program.to_string f.Fuzz.Engine.find_program) b.finds);
  Alcotest.(check (list (pair string int))) "feature table" a.feature_table b.feature_table

let cfg ?(baseline = false) ?(jobs = 1) ~budget ~seed () =
  { Fuzz.Engine.budget; batch = 8; jobs; seed; initial = []; baseline }

let program_tests =
  [
    Alcotest.test_case "generated programs validate and roundtrip" `Quick (fun () ->
        let rng = Sim.Rng.create 5 in
        for _ = 1 to 100 do
          let p = Fuzz.Program.generate rng in
          (match Fuzz.Program.validate p with
          | Ok () -> ()
          | Error e -> Alcotest.failf "generated program invalid: %s" e);
          let text = Fuzz.Program.to_string p in
          match Fuzz.Program.of_string text with
          | Error e -> Alcotest.failf "roundtrip parse failed: %s\n%s" e text
          | Ok p' -> Alcotest.(check string) "roundtrip" text (Fuzz.Program.to_string p')
        done);
    Alcotest.test_case "mutants validate and differ from their parent" `Quick (fun () ->
        let rng = Sim.Rng.create 6 in
        let p = ref (Fuzz.Program.generate rng) in
        for _ = 1 to 100 do
          let m = Fuzz.Program.mutate rng !p in
          (match Fuzz.Program.validate m with
          | Ok () -> ()
          | Error e -> Alcotest.failf "mutant invalid: %s" e);
          Alcotest.(check bool) "textually distinct" false (Fuzz.Program.equal m !p);
          p := m
        done);
    Alcotest.test_case "shrink candidates stay valid" `Quick (fun () ->
        let rng = Sim.Rng.create 7 in
        for _ = 1 to 50 do
          let p = Fuzz.Program.generate rng in
          List.iter
            (fun s ->
              match Fuzz.Program.validate s with
              | Ok () -> ()
              | Error e -> Alcotest.failf "shrink invalid: %s" e)
            (Fuzz.Program.shrink p)
        done);
    Alcotest.test_case "of_string rejects malformed input" `Quick (fun () ->
        let bad =
          [
            "";
            "skulkfuzz v2\nseed 1\nscenario clean\ncustomer_mb 64\nksm fast\nfaults none\nend\n";
            "skulkfuzz v1\nseed 1\nscenario clean\ncustomer_mb 9999\nksm fast\nfaults none\nend\n";
            "skulkfuzz v1\nseed 1\nscenario clean\ncustomer_mb 64\nksm warp\nfaults none\nend\n";
            "skulkfuzz v1\nseed 1\nscenario clean\ncustomer_mb 64\nksm fast\nfaults none\n\
             frobnicate 3\nend\n";
            "skulkfuzz v1\nseed 1\nscenario clean\ncustomer_mb 64\nksm fast\nfaults none\n";
          ]
        in
        List.iter
          (fun text ->
            Alcotest.(check bool) "rejected" true
              (Result.is_error (Fuzz.Program.of_string text)))
          bad);
  ]

let coverage_tests =
  [
    Alcotest.test_case "bucket is monotone and bounded" `Quick (fun () ->
        Alcotest.(check int) "zero" 0 (Fuzz.Coverage.bucket 0.);
        Alcotest.(check int) "negative" 0 (Fuzz.Coverage.bucket (-3.));
        let prev = ref 0 in
        for v = 1 to 100_000 do
          let b = Fuzz.Coverage.bucket (float_of_int v) in
          Alcotest.(check bool) "monotone" true (b >= !prev);
          Alcotest.(check bool) "bounded" true (b <= 62);
          prev := b
        done);
    Alcotest.test_case "path_signature keeps order" `Quick (fun () ->
        let p1 = Fuzz.Coverage.path_signature [ "a"; "b" ] in
        let p2 = Fuzz.Coverage.path_signature [ "b"; "a" ] in
        Alcotest.(check bool) "order-sensitive" false (Int64.equal p1 p2);
        Alcotest.(check int) "hex width" 16 (String.length (Fuzz.Coverage.hex p1)));
  ]

let engine_tests =
  [
    Alcotest.test_case "same seed and budget reproduce the run exactly" `Slow (fun () ->
        let a = Fuzz.Engine.run (cfg ~budget:16 ~seed:7 ()) in
        let b = Fuzz.Engine.run (cfg ~budget:16 ~seed:7 ()) in
        check_stats_equal a b);
    Alcotest.test_case "jobs do not change results" `Slow (fun () ->
        let a = Fuzz.Engine.run (cfg ~budget:16 ~seed:11 ~jobs:1 ()) in
        let b = Fuzz.Engine.run (cfg ~budget:16 ~seed:11 ~jobs:4 ()) in
        check_stats_equal a b);
    Alcotest.test_case "guided discovers more than feedback-free random" `Slow (fun () ->
        let s = Fuzz.Engine.run (cfg ~budget:32 ~seed:42 ~baseline:true ()) in
        Alcotest.(check bool)
          (Printf.sprintf "signatures %d > %d" s.Fuzz.Engine.guided_signatures
             s.Fuzz.Engine.random_signatures)
          true
          (s.Fuzz.Engine.guided_signatures > s.Fuzz.Engine.random_signatures);
        Alcotest.(check bool)
          (Printf.sprintf "features %d > %d" s.Fuzz.Engine.guided_features
             s.Fuzz.Engine.random_features)
          true
          (s.Fuzz.Engine.guided_features > s.Fuzz.Engine.random_features));
  ]

let corpus_tests =
  [
    Alcotest.test_case "corpus entries roundtrip through the file format" `Quick (fun () ->
        let rng = Sim.Rng.create 9 in
        let p = Fuzz.Program.generate rng in
        let entry =
          {
            Fuzz.Corpus.name = "t.skulkfuzz";
            program = p;
            expect_violation = Some "migration-conservation";
            expect_signature = "00deadbeef00cafe";
          }
        in
        let text = Fuzz.Corpus.entry_to_string entry in
        match Fuzz.Corpus.entry_of_string ~name:"t.skulkfuzz" text with
        | Error e -> Alcotest.failf "reparse failed: %s" e
        | Ok e' -> Alcotest.(check string) "roundtrip" text (Fuzz.Corpus.entry_to_string e'));
    Alcotest.test_case "checked-in corpus replays to its recorded outcome" `Slow (fun () ->
        match Fuzz.Corpus.load_dir "corpus" with
        | Error e -> Alcotest.failf "load_dir: %s" e
        | Ok entries ->
          Alcotest.(check bool) "has the hand-seeded programs" true (List.length entries >= 4);
          List.iter
            (fun e ->
              match Fuzz.Corpus.check e with
              | Ok () -> ()
              | Error msg -> Alcotest.failf "replay drift: %s" msg)
            entries);
  ]

let () =
  Alcotest.run "fuzz"
    [
      ("program", program_tests);
      ("coverage", coverage_tests);
      ("engine", engine_tests);
      ("corpus", corpus_tests);
    ]
