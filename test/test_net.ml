(* Tests for the network substrate: links, packet routing, taps,
   port forwarding, and flows. *)

let engine () = Sim.Ctx.create ()

let link_tests =
  let open Net.Link in
  [
    Alcotest.test_case "transfer time = latency + serialisation" `Quick (fun () ->
        let l = make ~latency:(Sim.Time.ms 1.) ~bandwidth_mbytes_per_s:1. in
        (* 1 MiB at 1 MiB/s = 1 s, plus 1 ms latency *)
        let t = transfer_time l (1024 * 1024) in
        Alcotest.(check int64) "1.001 s" (Sim.Time.to_ns (Sim.Time.ms 1001.)) (Sim.Time.to_ns t));
    Alcotest.test_case "zero bytes costs latency only" `Quick (fun () ->
        let l = make ~latency:(Sim.Time.us 100.) ~bandwidth_mbytes_per_s:10. in
        Alcotest.(check int64) "latency" (Sim.Time.to_ns (Sim.Time.us 100.))
          (Sim.Time.to_ns (transfer_time l 0)));
    Alcotest.test_case "scale_bandwidth derates" `Quick (fun () ->
        let l = make ~latency:Sim.Time.zero ~bandwidth_mbytes_per_s:100. in
        let slow = scale_bandwidth l 0.5 in
        let fast_t = Sim.Time.to_s (transfer_time l (100 * 1024 * 1024)) in
        let slow_t = Sim.Time.to_s (transfer_time slow (100 * 1024 * 1024)) in
        Alcotest.(check (float 1e-6)) "double time" (2. *. fast_t) slow_t);
    Alcotest.test_case "invalid bandwidth rejected" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (make ~latency:Sim.Time.zero ~bandwidth_mbytes_per_s:0.);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "negative byte count rejected" `Quick (fun () ->
        let l = make ~latency:Sim.Time.zero ~bandwidth_mbytes_per_s:1. in
        Alcotest.(check bool) "raises" true
          (try
             ignore (transfer_time l (-1));
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "derating saturates at the bandwidth floor" `Quick (fun () ->
        (* repeated aggressive derates must clamp, not underflow to a
           bandwidth whose serialisation times overflow the clock *)
        let l = ref (make ~latency:Sim.Time.zero ~bandwidth_mbytes_per_s:100.) in
        for _ = 1 to 64 do
          l := scale_bandwidth !l 1e-6
        done;
        Alcotest.(check (float 1e-9)) "clamped to the floor" min_bandwidth_bytes_per_s
          !l.bandwidth_bytes_per_s;
        (* at the 1 B/s floor, one byte serialises in exactly one second *)
        Alcotest.(check (float 1e-6)) "still finite" 1. (Sim.Time.to_s (transfer_time !l 1)));
    Alcotest.test_case "invalid derate factors rejected" `Quick (fun () ->
        let l = make ~latency:Sim.Time.zero ~bandwidth_mbytes_per_s:1. in
        let rejects f =
          try
            ignore (scale_bandwidth l f);
            false
          with Invalid_argument _ -> true
        in
        Alcotest.(check bool) "zero" true (rejects 0.);
        Alcotest.(check bool) "negative" true (rejects (-2.));
        Alcotest.(check bool) "nan" true (rejects Float.nan));
  ]

let packet_tests =
  let open Net.Packet in
  [
    Alcotest.test_case "default size includes headers" `Quick (fun () ->
        let p =
          make ~id:1 ~src:(endpoint "a" 1) ~dst:(endpoint "b" 2) "hello"
        in
        Alcotest.(check int) "5 + 54" 59 p.size_bytes);
    Alcotest.test_case "visible payload hides ciphertext" `Quick (fun () ->
        let p =
          make ~encrypted:true ~id:1 ~src:(endpoint "a" 1) ~dst:(endpoint "b" 2) "secret"
        in
        Alcotest.(check string) "hidden" "<ciphertext>" (visible_payload p);
        let q = make ~id:2 ~src:(endpoint "a" 1) ~dst:(endpoint "b" 2) "open" in
        Alcotest.(check string) "clear" "open" (visible_payload q));
  ]

let mk_world () =
  let e = engine () in
  let sw = Net.Fabric.Switch.create e ~name:"sw" ~link:Net.Link.loopback in
  (e, sw)

let send_and_run e sw packet =
  Net.Fabric.Switch.send sw packet;
  ignore (Sim.Engine.run (Sim.Ctx.engine e))

let fabric_tests =
  let open Net.Fabric in
  [
    Alcotest.test_case "delivery to listening port" `Quick (fun () ->
        let e, sw = mk_world () in
        let n = Node.create ~addr:"10.0.0.1" in
        Node.attach n sw;
        let got = ref None in
        Node.listen n 80 (fun p -> got := Some p.Net.Packet.payload);
        send_and_run e sw
          (Net.Packet.make ~id:1
             ~src:(Net.Packet.endpoint "x" 1)
             ~dst:(Net.Packet.endpoint "10.0.0.1" 80)
             "GET /");
        Alcotest.(check (option string)) "received" (Some "GET /") !got);
    Alcotest.test_case "unknown address counts as dropped" `Quick (fun () ->
        let e, sw = mk_world () in
        send_and_run e sw
          (Net.Packet.make ~id:1
             ~src:(Net.Packet.endpoint "x" 1)
             ~dst:(Net.Packet.endpoint "10.9.9.9" 80)
             "?");
        Alcotest.(check int) "dropped" 1 (Switch.packets_dropped sw));
    Alcotest.test_case "unhandled port counted" `Quick (fun () ->
        let e, sw = mk_world () in
        let n = Node.create ~addr:"10.0.0.1" in
        Node.attach n sw;
        send_and_run e sw
          (Net.Packet.make ~id:1
             ~src:(Net.Packet.endpoint "x" 1)
             ~dst:(Net.Packet.endpoint "10.0.0.1" 81)
             "?");
        Alcotest.(check int) "unhandled" 1 (Node.packets_unhandled n));
    Alcotest.test_case "port forward rewrites and relays" `Quick (fun () ->
        let e, sw = mk_world () in
        let gw = Node.create ~addr:"192.168.1.100" in
        let vm = Node.create ~addr:"10.0.0.5" in
        Node.attach gw sw;
        Node.attach vm sw;
        Node.add_forward gw ~from_port:2222 ~to_:(Net.Packet.endpoint "10.0.0.5" 22) ~via:sw;
        let got = ref None in
        Node.listen vm 22 (fun p -> got := Some p.Net.Packet.payload);
        send_and_run e sw
          (Net.Packet.make ~id:1
             ~src:(Net.Packet.endpoint "user" 40000)
             ~dst:(Net.Packet.endpoint "192.168.1.100" 2222)
             "ssh");
        Alcotest.(check (option string)) "reached vm:22" (Some "ssh") !got);
    Alcotest.test_case "chained forwards (host -> guestx -> nested)" `Quick (fun () ->
        (* The CloudSkulk path: the victim user's packets reach the
           nested VM through two NAT hops without a client-side change. *)
        let e = engine () in
        let host_sw = Net.Fabric.Switch.create e ~name:"host" ~link:Net.Link.loopback in
        let nested_sw = Net.Fabric.Switch.create e ~name:"nested" ~link:Net.Link.loopback in
        let gw = Node.create ~addr:"192.168.1.100" in
        let guestx = Node.create ~addr:"10.0.0.7" in
        let victim = Node.create ~addr:"10.1.0.1" in
        Node.attach gw host_sw;
        Node.attach guestx host_sw;
        Node.attach guestx nested_sw;
        Node.attach victim nested_sw;
        Node.add_forward gw ~from_port:2222 ~to_:(Net.Packet.endpoint "10.0.0.7" 2222)
          ~via:host_sw;
        Node.add_forward guestx ~from_port:2222 ~to_:(Net.Packet.endpoint "10.1.0.1" 22)
          ~via:nested_sw;
        let got = ref None in
        Node.listen victim 22 (fun p -> got := Some p.Net.Packet.payload);
        send_and_run e host_sw
          (Net.Packet.make ~id:1
             ~src:(Net.Packet.endpoint "user" 40000)
             ~dst:(Net.Packet.endpoint "192.168.1.100" 2222)
             "ssh login");
        Alcotest.(check (option string)) "two hops" (Some "ssh login") !got);
    Alcotest.test_case "tap observes, drop kills, rewrite alters" `Quick (fun () ->
        let e, sw = mk_world () in
        let n = Node.create ~addr:"10.0.0.1" in
        Node.attach n sw;
        let seen = ref [] in
        let got = ref [] in
        Node.add_tap n (fun p ->
            seen := p.Net.Packet.payload :: !seen;
            Forward);
        Node.add_tap n (fun p ->
            if p.Net.Packet.payload = "bad" then Drop
            else if p.Net.Packet.payload = "fix" then
              Rewrite { p with Net.Packet.payload = "fixed" }
            else Forward);
        Node.listen n 80 (fun p -> got := p.Net.Packet.payload :: !got);
        let send payload =
          send_and_run e sw
            (Net.Packet.make ~id:1
               ~src:(Net.Packet.endpoint "x" 1)
               ~dst:(Net.Packet.endpoint "10.0.0.1" 80)
               payload)
        in
        send "ok";
        send "bad";
        send "fix";
        Alcotest.(check (list string)) "tap saw all" [ "ok"; "bad"; "fix" ] (List.rev !seen);
        Alcotest.(check (list string)) "handler saw filtered" [ "ok"; "fixed" ] (List.rev !got));
    Alcotest.test_case "detach stops delivery" `Quick (fun () ->
        let e, sw = mk_world () in
        let n = Node.create ~addr:"10.0.0.1" in
        Node.attach n sw;
        Node.detach n sw;
        send_and_run e sw
          (Net.Packet.make ~id:1
             ~src:(Net.Packet.endpoint "x" 1)
             ~dst:(Net.Packet.endpoint "10.0.0.1" 80)
             "p");
        Alcotest.(check int) "dropped" 1 (Switch.packets_dropped sw));
    Alcotest.test_case "route_through applies taps without delivering" `Quick (fun () ->
        let n = Node.create ~addr:"10.0.0.9" in
        Node.add_tap n (fun p -> Rewrite { p with Net.Packet.payload = "X" });
        let p =
          Net.Packet.make ~id:1 ~src:(Net.Packet.endpoint "a" 1)
            ~dst:(Net.Packet.endpoint "b" 2) "orig"
        in
        (match Node.route_through n p with
        | Some q -> Alcotest.(check string) "rewritten" "X" q.Net.Packet.payload
        | None -> Alcotest.fail "dropped");
        Node.add_tap n (fun _ -> Drop);
        Alcotest.(check bool) "dropped now" true (Node.route_through n p = None));
    Alcotest.test_case "delivery takes link time" `Quick (fun () ->
        let e = engine () in
        let link = Net.Link.make ~latency:(Sim.Time.ms 10.) ~bandwidth_mbytes_per_s:1000. in
        let sw = Net.Fabric.Switch.create e ~name:"slow" ~link in
        let n = Node.create ~addr:"10.0.0.1" in
        Node.attach n sw;
        let at = ref Sim.Time.zero in
        Node.listen n 80 (fun _ -> at := Sim.Engine.now (Sim.Ctx.engine e));
        Net.Fabric.Switch.send sw
          (Net.Packet.make ~id:1
             ~src:(Net.Packet.endpoint "x" 1)
             ~dst:(Net.Packet.endpoint "10.0.0.1" 80)
             "p");
        ignore (Sim.Engine.run (Sim.Ctx.engine e));
        Alcotest.(check bool) "after latency" true Sim.Time.(!at >= Sim.Time.ms 10.));
  ]

let flow_tests =
  [
    Alcotest.test_case "throughput matches bandwidth" `Quick (fun () ->
        let e = engine () in
        let link = Net.Link.make ~latency:Sim.Time.zero ~bandwidth_mbytes_per_s:100. in
        let r = Net.Flow.run e ~link ~bytes:(100 * 1024 * 1024) () in
        (* 100 MiB at 100 MiB/s -> 1 s -> 838.8 Mbit/s *)
        Alcotest.(check bool) "about 839 Mbit/s" true
          (Float.abs (r.Net.Flow.throughput_mbit_s -. 838.9) < 5.));
    Alcotest.test_case "derate slows the flow" `Quick (fun () ->
        let e = engine () in
        let link = Net.Link.make ~latency:Sim.Time.zero ~bandwidth_mbytes_per_s:100. in
        let fast = Net.Flow.run e ~link ~bytes:(10 * 1024 * 1024) () in
        let slow = Net.Flow.run e ~link ~derate:0.5 ~bytes:(10 * 1024 * 1024) () in
        Alcotest.(check bool) "half throughput" true
          (slow.Net.Flow.throughput_mbit_s < fast.Net.Flow.throughput_mbit_s *. 0.6));
    Alcotest.test_case "zero bytes completes instantly" `Quick (fun () ->
        let e = engine () in
        let r = Net.Flow.run e ~link:Net.Link.loopback ~bytes:0 () in
        Alcotest.(check int) "no bytes" 0 r.Net.Flow.bytes);
    Alcotest.test_case "flow advances virtual time" `Quick (fun () ->
        let e = engine () in
        let link = Net.Link.make ~latency:Sim.Time.zero ~bandwidth_mbytes_per_s:10. in
        let before = Sim.Engine.now (Sim.Ctx.engine e) in
        ignore (Net.Flow.run e ~link ~bytes:(10 * 1024 * 1024) ());
        let elapsed = Sim.Time.diff (Sim.Engine.now (Sim.Ctx.engine e)) before in
        Alcotest.(check bool) "about 1s" true
          (Float.abs (Sim.Time.to_s elapsed -. 1.) < 0.05));
    Alcotest.test_case "no injector means no fault accounting" `Quick (fun () ->
        let e = engine () in
        let link = Net.Link.make ~latency:Sim.Time.zero ~bandwidth_mbytes_per_s:100. in
        let r = Net.Flow.run e ~link ~bytes:(8 * 1024 * 1024) () in
        Alcotest.(check int) "no retransmits" 0 r.Net.Flow.retransmits;
        Alcotest.(check int64) "no downtime" 0L (Sim.Time.to_ns r.Net.Flow.link_downtime));
    Alcotest.test_case "lossy flow delivers every byte, later" `Quick (fun () ->
        let bytes = 16 * 1024 * 1024 in
        let link = Net.Link.make ~latency:Sim.Time.zero ~bandwidth_mbytes_per_s:100. in
        let clean = Net.Flow.run (engine ()) ~link ~bytes () in
        let e = engine () in
        let fault = Sim.Fault.create Sim.Fault.lossy (Sim.Ctx.fork_rng e) in
        let r = Net.Flow.run e ~link ~fault ~bytes () in
        Alcotest.(check int) "all bytes arrive" bytes r.Net.Flow.bytes;
        Alcotest.(check bool) "no faster than fault-free" true
          (Sim.Time.to_ns r.Net.Flow.elapsed >= Sim.Time.to_ns clean.Net.Flow.elapsed));
    Alcotest.test_case "an outage shows up as link downtime" `Quick (fun () ->
        let e = engine () in
        (* mean 50 ms between failures over a ~1 s stream: the cut is
           certain for this seed, and the schedule is deterministic *)
        let profile =
          { Sim.Fault.lossy with Sim.Fault.mtbf = Some (Sim.Time.ms 50.); mttr = Sim.Time.ms 200. }
        in
        let fault = Sim.Fault.create profile (Sim.Ctx.fork_rng e) in
        let link = Net.Link.make ~latency:Sim.Time.zero ~bandwidth_mbytes_per_s:10. in
        let r = Net.Flow.run e ~link ~fault ~bytes:(10 * 1024 * 1024) () in
        Alcotest.(check bool) "downtime recorded" true
          (Sim.Time.to_ns r.Net.Flow.link_downtime > 0L);
        Alcotest.(check bool) "interrupted chunks were resent" true
          (r.Net.Flow.retransmits > 0));
  ]

(* ---- burst batching ---- *)

let burst_tests =
  [
    Alcotest.test_case "fault-free bursts add up the per-chunk delays" `Quick (fun () ->
        (* the batched sender must sum exactly the per-chunk delays a
           chunk-at-a-time sender would schedule - including with
           jitter, where the RNG draws must happen in chunk order - so
           the elapsed time is the latency plus that sum *)
        let bytes = (16 * 1024 * 1024) + 12345 in
        let link = Net.Link.make ~latency:(Sim.Time.us 200.) ~bandwidth_mbytes_per_s:117. in
        List.iter
          (fun noise_rsd ->
            let r =
              Net.Flow.run (engine ()) ~link ~noise_rsd ~rng:(Sim.Rng.create 42) ~bytes ()
            in
            let rng = Sim.Rng.create 42 in
            let rec per_chunk acc remaining =
              if remaining <= 0 then acc
              else
                let this = min 65536 remaining in
                let d =
                  Sim.Time.mul
                    (Sim.Time.s (float_of_int this /. link.Net.Link.bandwidth_bytes_per_s))
                    (Sim.Rng.lognormal_noise rng ~rsd:noise_rsd)
                in
                per_chunk (Sim.Time.add acc d) (remaining - this)
            in
            Alcotest.(check int64) "latency + per-chunk sum"
              (Sim.Time.to_ns (per_chunk link.Net.Link.latency bytes))
              (Sim.Time.to_ns r.Net.Flow.elapsed))
          [ 0.; 0.3 ]);
    Alcotest.test_case "faulted flows pace one event per chunk" `Quick (fun () ->
        (* fault decisions are per-chunk and time-dependent, so a faulted
           stream keeps chunk-at-a-time pacing even when nothing fires; a
           fault-free stream batches 16 chunks per event *)
        let bytes = 8 * 1024 * 1024 in
        let link = Net.Link.make ~latency:Sim.Time.zero ~bandwidth_mbytes_per_s:100. in
        let events ?fault () =
          let e = engine () in
          ignore (Net.Flow.run e ~link ?fault ~bytes ());
          Sim.Engine.events_processed (Sim.Ctx.engine e)
        in
        let quiet = Sim.Fault.create Sim.Fault.none (Sim.Rng.create 7) in
        Alcotest.(check int) "faulted: latency + 128 chunks" 129 (events ~fault:quiet ());
        Alcotest.(check int) "fault-free: latency + 8 bursts" 9 (events ()));
  ]

let net_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random NAT chains deliver to the final hop" ~count:100
         QCheck.(pair small_int (int_range 1 6))
         (fun (seed, hops) ->
           (* build a chain of [hops] gateways, each forwarding port 1000
              to the next node, ending at a listener *)
           let e = Sim.Ctx.create ~seed () in
           let sw = Net.Fabric.Switch.create e ~name:"sw" ~link:Net.Link.loopback in
           let nodes =
             List.init (hops + 1) (fun i ->
                 let n =
                   Net.Fabric.Node.create ~addr:(Printf.sprintf "10.0.0.%d" (i + 1))
                 in
                 Net.Fabric.Node.attach n sw;
                 n)
           in
           let rec wire = function
             | a :: (b :: _ as rest) ->
               Net.Fabric.Node.add_forward a ~from_port:1000
                 ~to_:(Net.Packet.endpoint (Net.Fabric.Node.addr b) 1000)
                 ~via:sw;
               wire rest
             | [ _ ] | [] -> ()
           in
           wire nodes;
           let got = ref false in
           let last = List.nth nodes hops in
           Net.Fabric.Node.listen last 1000 (fun _ -> got := true);
           Net.Fabric.Switch.send sw
             (Net.Packet.make ~id:1
                ~src:(Net.Packet.endpoint "src" 1)
                ~dst:(Net.Packet.endpoint "10.0.0.1" 1000)
                "x");
           ignore (Sim.Engine.run (Sim.Ctx.engine e));
           !got));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"flow time scales linearly with bytes" ~count:100
         QCheck.(int_range 1 64)
         (fun mib ->
           let e = Sim.Ctx.create () in
           let link = Net.Link.make ~latency:Sim.Time.zero ~bandwidth_mbytes_per_s:64. in
           let r = Net.Flow.run e ~link ~bytes:(mib * 1024 * 1024) () in
           Float.abs (Sim.Time.to_s r.Net.Flow.elapsed -. (float_of_int mib /. 64.)) < 0.01));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"taps never duplicate deliveries" ~count:100
         QCheck.(int_range 0 5)
         (fun n_taps ->
           let e = Sim.Ctx.create () in
           let sw = Net.Fabric.Switch.create e ~name:"sw" ~link:Net.Link.loopback in
           let node = Net.Fabric.Node.create ~addr:"10.0.0.1" in
           Net.Fabric.Node.attach node sw;
           for _ = 1 to n_taps do
             Net.Fabric.Node.add_tap node (fun _ -> Net.Fabric.Forward)
           done;
           let count = ref 0 in
           Net.Fabric.Node.listen node 80 (fun _ -> incr count);
           Net.Fabric.Switch.send sw
             (Net.Packet.make ~id:1
                ~src:(Net.Packet.endpoint "s" 1)
                ~dst:(Net.Packet.endpoint "10.0.0.1" 80)
                "x");
           ignore (Sim.Engine.run (Sim.Ctx.engine e));
           !count = 1));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"faulted flows deliver every byte under any seed" ~count:50
         QCheck.(pair small_int (int_range 1 16))
         (fun (seed, mib) ->
           let bytes = mib * 1024 * 1024 in
           let link = Net.Link.make ~latency:Sim.Time.zero ~bandwidth_mbytes_per_s:64. in
           let e = Sim.Ctx.create ~seed () in
           let fault = Sim.Fault.create Sim.Fault.flaky (Sim.Ctx.fork_rng e) in
           let r = Net.Flow.run e ~link ~fault ~bytes () in
           (* faults cost time, never data: the full payload lands, the
              stream sat through at least the injected downtime, and a
              recorded outage always implies a resent chunk *)
           r.Net.Flow.bytes = bytes
           && Sim.Time.to_ns r.Net.Flow.elapsed >= Sim.Time.to_ns r.Net.Flow.link_downtime
           && (Sim.Time.to_ns r.Net.Flow.link_downtime = 0L || r.Net.Flow.retransmits > 0)));
  ]

let () =
  Alcotest.run "net"
    [
      ("link", link_tests);
      ("packet", packet_tests);
      ("fabric", fabric_tests);
      ("flow", flow_tests);
      ("burst", burst_tests);
      ("properties", net_props);
    ]
