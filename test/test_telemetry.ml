(* Sim.Telemetry: registry semantics, exporters, merging, and the
   determinism contract the observability layer promises - same seed =>
   byte-equal exports whatever --jobs is, and a disabled sink that
   changes nothing. *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  scan 0

let registry_tests =
  let open Sim.Telemetry in
  [
    Alcotest.test_case "counter registers at zero" `Quick (fun () ->
        let t = create () in
        let _ = counter (Some t) ~component:"vmm" "exits_total" in
        Alcotest.(check int) "one series" 1 (series_count t);
        Alcotest.(check (option (float 0.))) "starts at 0" (Some 0.)
          (value t "vmm_exits_total"));
    Alcotest.test_case "incr and add accumulate" `Quick (fun () ->
        let t = create () in
        let c = counter (Some t) ~component:"x" "n_total" in
        incr c;
        add c 4;
        addf c 0.5;
        Alcotest.(check (option (float 1e-9))) "5.5" (Some 5.5) (value t "x_n_total"));
    Alcotest.test_case "negative increments raise" `Quick (fun () ->
        let t = create () in
        let c = counter (Some t) ~component:"x" "n_total" in
        Alcotest.check_raises "add -1"
          (Invalid_argument "Telemetry.add: counters are monotonic") (fun () -> add c (-1)));
    Alcotest.test_case "same series, one entry; labels sorted" `Quick (fun () ->
        let t = create () in
        let a = counter (Some t) ~labels:[ ("b", "2"); ("a", "1") ] ~component:"c" "n_total" in
        let b = counter (Some t) ~labels:[ ("a", "1"); ("b", "2") ] ~component:"c" "n_total" in
        incr a;
        incr b;
        Alcotest.(check int) "one series" 1 (series_count t);
        Alcotest.(check (option (float 0.))) "both handles hit it" (Some 2.)
          (value t {|c_n_total{a="1",b="2"}|}));
    Alcotest.test_case "kind mismatch raises" `Quick (fun () ->
        let t = create () in
        let _ = counter (Some t) ~component:"c" "x" in
        Alcotest.(check bool) "re-register as gauge rejected" true
          (try
             let _ = gauge (Some t) ~component:"c" "x" in
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "gauge takes last value" `Quick (fun () ->
        let t = create () in
        let g = gauge (Some t) ~component:"vmm" "vms_running" in
        set g 3.;
        set g 2.;
        Alcotest.(check (option (float 0.))) "last write" (Some 2.)
          (value t "vmm_vms_running"));
    Alcotest.test_case "histogram buckets and count" `Quick (fun () ->
        let t = create () in
        let h = histogram (Some t) ~buckets:[ 1.; 10. ] ~component:"m" "dur_seconds" in
        List.iter (observe h) [ 0.5; 5.; 50. ];
        Alcotest.(check (option int)) "count" (Some 3) (histogram_count t "m_dur_seconds");
        let text = prometheus_string t in
        Alcotest.(check bool) "le=1 cumulative" true
          (contains_sub text {|m_dur_seconds_bucket{le="1"} 1|});
        Alcotest.(check bool) "le=10 cumulative" true
          (contains_sub text {|m_dur_seconds_bucket{le="10"} 2|});
        Alcotest.(check bool) "+Inf" true
          (contains_sub text {|m_dur_seconds_bucket{le="+Inf"} 3|});
        Alcotest.(check bool) "sum" true (contains_sub text "m_dur_seconds_sum 55.5");
        Alcotest.(check bool) "count line" true (contains_sub text "m_dur_seconds_count 3"));
    Alcotest.test_case "disabled sink: no-op handles, no state" `Quick (fun () ->
        let c = Sim.Telemetry.counter None ~component:"x" "n_total" in
        let g = Sim.Telemetry.gauge None ~component:"x" "g" in
        let h = Sim.Telemetry.histogram None ~component:"x" "h" in
        incr c;
        add c 100;
        set g 5.;
        observe h 1.;
        span None ~component:"x" ~name:"s" ~start:Sim.Time.zero ~stop:(Sim.Time.ms 1.) ();
        Alcotest.(check bool) "enabled None" false (enabled None));
  ]

let export_tests =
  let open Sim.Telemetry in
  [
    Alcotest.test_case "prometheus output is sorted and typed" `Quick (fun () ->
        let t = create () in
        incr (counter (Some t) ~component:"zz" "last_total");
        incr (counter (Some t) ~component:"aa" "first_total");
        let text = prometheus_string t in
        let a = ref max_int and z = ref min_int in
        String.iteri
          (fun i _ ->
            if i + 14 <= String.length text && String.sub text i 14 = "aa_first_total" then
              a := Stdlib.min !a i;
            if i + 13 <= String.length text && String.sub text i 13 = "zz_last_total" then
              z := Stdlib.max !z i)
          text;
        Alcotest.(check bool) "aa before zz" true (!a < !z);
        Alcotest.(check bool) "TYPE comment" true
          (contains_sub text "# TYPE aa_first_total counter"));
    Alcotest.test_case "jsonl spans parse-shaped and escaped" `Quick (fun () ->
        let t = create () in
        span (Some t) ~component:"net" ~name:"flow" ~start:(Sim.Time.ms 1.)
          ~stop:(Sim.Time.ms 2.)
          ~fields:[ ("note", "a\"b\\c\nd") ]
          ();
        let text = jsonl_string t in
        Alcotest.(check bool) "start_ns" true (contains_sub text {|"start_ns":1000000|});
        Alcotest.(check bool) "end_ns" true (contains_sub text {|"end_ns":2000000|});
        Alcotest.(check bool) "escaped" true (contains_sub text {|a\"b\\c\nd|});
        (* one object per line, no trailing blank payload *)
        let lines = String.split_on_char '\n' (String.trim text) in
        Alcotest.(check int) "one line" 1 (List.length lines);
        let line = List.hd lines in
        Alcotest.(check bool) "object" true
          (String.length line > 1 && line.[0] = '{' && line.[String.length line - 1] = '}'));
    Alcotest.test_case "span capacity drops oldest" `Quick (fun () ->
        let t = create ~span_capacity:2 () in
        for i = 1 to 5 do
          span (Some t) ~component:"c" ~name:(string_of_int i) ~start:Sim.Time.zero
            ~stop:Sim.Time.zero ()
        done;
        Alcotest.(check int) "kept" 2 (spans_recorded t);
        Alcotest.(check int) "dropped" 3 (spans_dropped t);
        let text = jsonl_string t in
        Alcotest.(check bool) "oldest gone" false (contains_sub text {|"name":"1"|});
        Alcotest.(check bool) "newest kept" true (contains_sub text {|"name":"5"|}));
  ]

let merge_tests =
  let open Sim.Telemetry in
  [
    Alcotest.test_case "merge adds counters, tags spans" `Quick (fun () ->
        let parent = create () in
        incr (counter (Some parent) ~component:"c" "n_total");
        let child = create_like parent in
        add (counter (Some child) ~component:"c" "n_total") 2;
        span (Some child) ~component:"c" ~name:"s" ~start:Sim.Time.zero
          ~stop:(Sim.Time.ms 1.) ();
        merge_into ~into:parent ~span_fields:[ ("trial", "7") ] child;
        Alcotest.(check (option (float 0.))) "3" (Some 3.) (value parent "c_n_total");
        Alcotest.(check bool) "trial tag" true
          (contains_sub (jsonl_string parent) {|"trial":"7"|}));
    Alcotest.test_case "merge is bucket-wise for histograms" `Quick (fun () ->
        let parent = create () in
        let hp = histogram (Some parent) ~buckets:[ 1. ] ~component:"m" "h" in
        observe hp 0.5;
        let child = create_like parent in
        let hc = histogram (Some child) ~buckets:[ 1. ] ~component:"m" "h" in
        observe hc 2.;
        merge_into ~into:parent child;
        Alcotest.(check (option int)) "count 2" (Some 2) (histogram_count parent "m_h"));
  ]

(* The tentpole determinism contract, at the scenario level: a full
   detect trial batch exports byte-identical telemetry at any worker
   count, because per-trial sinks are merged in trial order. *)
let determinism_tests =
  let run_batch ~jobs =
    let t = Sim.Telemetry.create () in
    let ctx = Sim.Ctx.create ~seed:1 ~telemetry:t () in
    let _ =
      Sim.Parallel.map_ctx ~jobs ~ctx ~trials:3
        (fun _ child ->
          let sc = Cloudskulk.Scenarios.clean child in
          match Cloudskulk.Dedup_detector.run sc.Cloudskulk.Scenarios.detector_env with
          | Ok o -> Cloudskulk.Dedup_detector.verdict_to_string o.Cloudskulk.Dedup_detector.verdict
          | Error e -> e)
    in
    (Sim.Telemetry.prometheus_string t, Sim.Telemetry.jsonl_string t)
  in
  [
    Alcotest.test_case "jobs=1 and jobs=4 exports are byte-equal" `Slow (fun () ->
        let m1, s1 = run_batch ~jobs:1 in
        let m4, s4 = run_batch ~jobs:4 in
        Alcotest.(check string) "metrics" m1 m4;
        Alcotest.(check string) "spans" s1 s4);
    Alcotest.test_case "scenario metrics cover the layers" `Slow (fun () ->
        let t = Sim.Telemetry.create () in
        let sc = Cloudskulk.Scenarios.infected (Sim.Ctx.create ~seed:3 ~telemetry:t ()) in
        (match Cloudskulk.Dedup_detector.run sc.Cloudskulk.Scenarios.detector_env with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e);
        let text = Sim.Telemetry.prometheus_string t in
        List.iter
          (fun series ->
            Alcotest.(check bool) (series ^ " present") true (contains_sub text series))
          [
            "vmm_exits_total";
            "vmm_vm_launches_total";
            "ksm_pages_merged_total";
            "ksm_scan_passes_total";
            "memory_cow_breaks_total";
            "memory_dirty_drains_total";
            "migration_rounds_total";
            "migration_outcomes_total";
            "net_packets_delivered_total";
            "cloudskulk_verdicts_total";
            "cloudskulk_probe_write_ns";
          ]);
    Alcotest.test_case "disabled telemetry leaves behaviour unchanged" `Slow (fun () ->
        let verdict telemetry =
          let sc = Cloudskulk.Scenarios.infected (Sim.Ctx.create ~seed:5 ?telemetry ()) in
          match Cloudskulk.Dedup_detector.run sc.Cloudskulk.Scenarios.detector_env with
          | Ok o ->
            ( Cloudskulk.Dedup_detector.verdict_to_string o.Cloudskulk.Dedup_detector.verdict,
              Sim.Time.to_ns o.Cloudskulk.Dedup_detector.elapsed )
          | Error e -> (e, 0L)
        in
        let off = verdict None in
        let on_ = verdict (Some (Sim.Telemetry.create ())) in
        Alcotest.(check string) "same verdict" (fst off) (fst on_);
        Alcotest.(check int64) "same sim time" (snd off) (snd on_));
  ]

let () =
  Alcotest.run "telemetry"
    [
      ("registry", registry_tests);
      ("export", export_tests);
      ("merge", merge_tests);
      ("determinism", determinism_tests);
    ]
