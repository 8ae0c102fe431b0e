(* Self-tests for the lint plumbing: the JSON report, the GitHub
   annotation format, and the allow machinery. *)

open Lintkit

let finding ?(col = 3) ~file ~line ~rule message =
  { Report.rule; file; line; col; message }

(* ---- JSON report ---- *)

let json_tests =
  [
    Alcotest.test_case "report shape, sorting and escapes" `Quick (fun () ->
        let fs =
          [ finding ~file:"lib/b.ml" ~line:9 ~rule:"rng-escape" "tab\there \\ backslash";
            finding ~file:"lib/a.ml" ~line:3 ~rule:"wall-clock" "uses \"now\"\n(bad)" ]
        in
        Alcotest.(check string) "document"
          {|{
  "tool": "skulkscope",
  "files_scanned": 42,
  "suppressed": 7,
  "finding_count": 2,
  "findings": [
    {"file":"lib/a.ml","line":3,"col":3,"rule":"wall-clock","message":"uses \"now\"\n(bad)"},
    {"file":"lib/b.ml","line":9,"col":3,"rule":"rng-escape","message":"tab\there \\ backslash"}
  ]
}
|}
          (Report.to_json ~tool:"skulkscope" ~files_scanned:42 ~suppressed:7 fs));
  ]

(* ---- github format ---- *)

let github_tests =
  [
    Alcotest.test_case "annotation shape and escaping" `Quick (fun () ->
        let f =
          finding ~file:"lib/a.ml" ~line:4 ~rule:"wall-clock" "50%\nbroken"
        in
        Alcotest.(check string) "annotation"
          "::error file=lib/a.ml,line=4,col=3,title=wall-clock::50%25%0Abroken"
          (Format.asprintf "%a" Report.pp_github f));
    Alcotest.test_case "zero line/col clamp to 1" `Quick (fun () ->
        let f = finding ~col:0 ~file:"a.ml" ~line:0 ~rule:"r" "m" in
        let s = Format.asprintf "%a" Report.pp_github f in
        Alcotest.(check bool) "clamped" true
          (String.length s > 0
          && Option.is_some
               (String.index_opt s '1' |> Option.map (fun _ -> ()))
          &&
          let needle = "line=1,col=1" in
          let rec has i =
            i + String.length needle <= String.length s
            && (String.sub s i (String.length needle) = needle || has (i + 1))
          in
          has 0));
  ]

(* ---- allow machinery ---- *)

let allow_tests =
  [
    Alcotest.test_case "inline marker: rules, reason, two-line span" `Quick
      (fun () ->
        let src =
          "let a = 1\n\
           (* skulkscope: allow wall-clock, poly-compare \xe2\x80\x94 startup only *)\n\
           let b = now ()\n\
           let c = now ()\n"
        in
        let allows = Allow.scan_comments ~marker:"skulkscope: allow" src in
        Alcotest.(check int) "one comment" 1 (List.length allows);
        Alcotest.(check bool) "covers own line" true
          (Allow.comment_covers allows ~line:2 ~rule:"wall-clock");
        Alcotest.(check bool) "covers next line, second rule" true
          (Allow.comment_covers allows ~line:3 ~rule:"poly-compare");
        Alcotest.(check bool) "not two lines below" false
          (Allow.comment_covers allows ~line:4 ~rule:"wall-clock");
        Alcotest.(check bool) "not other rules" false
          (Allow.comment_covers allows ~line:2 ~rule:"rng-escape");
        Alcotest.(check (list string)) "used allow produces no meta findings"
          []
          (List.map (fun (f : Report.finding) -> f.rule)
             (Allow.comment_findings ~file:"x.ml" allows)));
    Alcotest.test_case "markers are per-tool" `Quick (fun () ->
        let src = "(* skulkscope: allow rng-escape \xe2\x80\x94 reason *)\n" in
        Alcotest.(check int) "another tool's marker does not match" 0
          (List.length (Allow.scan_comments ~marker:"otherlint: allow" src));
        Alcotest.(check int) "skulkscope marker matches" 1
          (List.length (Allow.scan_comments ~marker:"skulkscope: allow" src)));
    Alcotest.test_case "unused and reasonless allows become findings" `Quick
      (fun () ->
        let src =
          "(* skulkscope: allow wall-clock \xe2\x80\x94 reason *)\n\
           (* skulkscope: allow poly-compare *)\n"
        in
        let allows = Allow.scan_comments ~marker:"skulkscope: allow" src in
        let metas = Allow.comment_findings ~file:"x.ml" allows in
        Alcotest.(check (list string)) "meta findings"
          [ "allow-unused"; "allow-syntax" ]
          (List.map (fun (f : Report.finding) -> f.rule) metas));
    Alcotest.test_case "allow file: exact, subtree, malformed" `Quick (fun () ->
        let entries, errors =
          Allow.parse_allow_file
            "# comment\n\
             lib/a.ml wall-clock boot code reads the clock once\n\
             lib/harness/fuzz/ ctx-minted fuzz mints per-seed worlds\n\
             lib/broken.ml missing-reason\n"
        in
        Alcotest.(check int) "one malformed line" 1 (List.length errors);
        Alcotest.(check int) "two entries" 2 (List.length entries);
        let exact = List.nth entries 0 and subtree = List.nth entries 1 in
        Alcotest.(check bool) "exact path" true
          (Allow.entry_covers exact ~path:"lib/a.ml" ~rule:"wall-clock");
        Alcotest.(check bool) "exact path, other rule" false
          (Allow.entry_covers exact ~path:"lib/a.ml" ~rule:"poly-compare");
        Alcotest.(check bool) "subtree" true
          (Allow.entry_covers subtree ~path:"lib/harness/fuzz/exec.ml"
             ~rule:"ctx-minted");
        Alcotest.(check bool) "subtree does not cover siblings" false
          (Allow.entry_covers subtree ~path:"lib/harness/registry.ml"
             ~rule:"ctx-minted"));
  ]

let () =
  Alcotest.run "lintkit"
    [ ("json", json_tests); ("github", github_tests); ("allow", allow_tests) ]
