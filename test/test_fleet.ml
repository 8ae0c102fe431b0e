(* Tests for the sharded fleet: the shard runner on a toy member world
   (partition, delivery order, barrier timeline, argument checks,
   horizon flush, failure context), Ctx member forking, migration
   stream capture/resume, the fabric default route, and the two
   headline properties - partition invariance (identical fleet output
   for any --shards x --jobs combination, including telemetry export
   and detector verdicts) and churn conservation (every booted VM is
   alive, killed, dropped or parked at the horizon; no host ever
   exceeds capacity). *)

(* ---- the shard runner on a toy world ---- *)

(* A toy member: it records each step's barrier and each delivery as
   (now, src, msgs), posts whatever [plan] tells it to, and calls [fail]
   before each delivery and step with the number of steps taken. *)
type toy = {
  id : int;
  mutable steps : Sim.Time.t list;  (** newest first *)
  mutable got : (Sim.Time.t * int * string list) list;  (** newest first *)
}

let toy_run ?(jobs = 1) ?(shards = 1) ?(epoch = Sim.Time.s 1.) ?(fail = fun ~member:_ ~k:_ -> ())
    ~members ~until plan =
  Sim.Parallel.run_sharded ~jobs ~shards ~ctx:(Sim.Ctx.create ~seed:5 ()) ~members ~epoch ~until
    (fun ~member _ctx ->
      let t = { id = member; steps = []; got = [] } in
      {
        Sim.Parallel.world = t;
        deliver =
          (fun ~now ~src msgs ->
            fail ~member ~k:(List.length t.steps);
            t.got <- (now, src, msgs) :: t.got);
        step =
          (fun ~until ~post ->
            let k = List.length t.steps in
            fail ~member ~k;
            t.steps <- until :: t.steps;
            List.iter (fun (dst, msg) -> post ~dst msg) (plan ~member ~k));
      })

let deliveries (t : toy) =
  List.rev_map (fun (now, src, msgs) -> (Sim.Time.to_ns now, src, msgs)) t.got

let delivery = Alcotest.(list (triple int64 int (list string)))

(* Interleaved mail: in epoch k member m posts to m+1, m+2, m+1 again
   and itself, so one destination's groups come from several sources
   and each group holds several messages. *)
let interleaved ~members ~member:m ~k =
  List.mapi
    (fun i dst -> ((m + dst) mod members, Printf.sprintf "%d.%d.%d" m k i))
    [ 1; 2; 1; 0 ]

exception Boom of int

(* Whether a backtrace's first line, its raise point, lies in this file. *)
let raised_here bt =
  let first = List.hd (String.split_on_char '\n' bt) and site = "test/test_fleet.ml" in
  let n = String.length first and m = String.length site in
  let rec scan i = i + m <= n && (String.sub first i m = site || scan (i + 1)) in
  scan 0

let raises_invalid name f =
  Alcotest.(check bool) name true
    (try
       ignore (f ());
       false
     with Invalid_argument _ -> true)

let shard_tests =
  [
    Alcotest.test_case "range partitions members contiguously" `Quick (fun () ->
        (* every member is built once, stepped once per epoch and
           returned in member order, whatever the shard count *)
        List.iter
          (fun (members, shards) ->
            let worlds =
              toy_run ~shards ~members ~until:(Sim.Time.s 3.) (fun ~member:_ ~k:_ -> [])
            in
            Alcotest.(check (list int))
              (Printf.sprintf "%d members over %d shards" members shards)
              (List.init members Fun.id)
              (Array.to_list (Array.map (fun t -> t.id) worlds));
            Array.iter
              (fun t -> Alcotest.(check int) "three steps" 3 (List.length t.steps))
              worlds)
          [ (1, 1); (4, 1); (4, 2); (4, 4); (5, 2); (7, 3); (10, 4); (3, 8) ]);
    Alcotest.test_case "exchange drains in (dst, src) order" `Quick (fun () ->
        let plan ~member ~k =
          match (member, k) with
          | 3, 0 -> [ (0, "c") ]
          | 1, 0 -> [ (0, "a"); (2, "x"); (0, "b") ]
          | 0, 0 -> [ (2, "d") ]
          | _ -> []
        in
        List.iter
          (fun shards ->
            let w = toy_run ~shards ~members:4 ~until:(Sim.Time.s 2.) plan in
            let at1 = Sim.Time.to_ns (Sim.Time.s 1.) in
            Alcotest.check delivery "dst 0 sees src 1 then src 3, per-pair FIFO"
              [ (at1, 1, [ "a"; "b" ]); (at1, 3, [ "c" ]) ]
              (deliveries w.(0));
            Alcotest.check delivery "dst 2" [ (at1, 0, [ "d" ]); (at1, 1, [ "x" ]) ] (deliveries w.(2));
            Alcotest.check delivery "dst 1 empty" [] (deliveries w.(1)))
          [ 1; 2; 3; 4 ]);
    Alcotest.test_case "exchange is partition-invariant" `Quick (fun () ->
        let members = 5 in
        let run shards jobs =
          toy_run ~jobs ~shards ~members ~until:(Sim.Time.s 4.) (interleaved ~members)
          |> Array.map deliveries
        in
        let reference = run 1 1 in
        List.iter
          (fun (shards, jobs) ->
            Array.iteri
              (fun m d ->
                Alcotest.check delivery
                  (Printf.sprintf "member %d at shards %d jobs %d" m shards jobs)
                  reference.(m) d)
              (run shards jobs))
          [ (1, 2); (2, 1); (2, 2); (3, 1); (3, 2); (members, 1); (members, 2) ];
        (* canonical order: ascending src per barrier, post order per group *)
        Array.iteri
          (fun m d ->
            Alcotest.(check int) (Printf.sprintf "member %d: 3 senders x 4 barriers" m) 12
              (List.length d);
            List.iteri
              (fun i (now, src, msgs) ->
                (match List.nth_opt d (i + 1) with
                | Some (now', src', _) when Int64.equal now now' ->
                  Alcotest.(check bool) "ascending src" true (src < src')
                | _ -> ());
                Alcotest.(check (list string)) "post order"
                  (List.sort String.compare msgs) msgs)
              d)
          reference);
    Alcotest.test_case "barrier plan covers the horizon" `Quick (fun () ->
        let steps until =
          toy_run ~epoch:(Sim.Time.s 15.) ~members:3 ~until (fun ~member:_ ~k:_ -> [])
          |> Array.map (fun t -> List.rev_map Sim.Time.to_ns t.steps)
        in
        let expected =
          List.map (fun s -> Sim.Time.to_ns (Sim.Time.s s)) [ 15.; 30.; 45.; 60.; 75.; 90.; 100. ]
        in
        Array.iter
          (Alcotest.(check (list int64)) "7 barriers, the last exactly at the horizon" expected)
          (steps (Sim.Time.s 100.));
        Array.iter
          (Alcotest.(check (list int64)) "a zero horizon steps nothing" [])
          (steps Sim.Time.zero));
    Alcotest.test_case "barrier rejects degenerate epochs" `Quick (fun () ->
        let quiet ~member:_ ~k:_ = [] in
        raises_invalid "zero epoch" (fun () ->
            toy_run ~epoch:Sim.Time.zero ~members:2 ~until:(Sim.Time.s 1.) quiet);
        raises_invalid "infinite horizon" (fun () ->
            toy_run ~members:2 ~until:Sim.Time.infinity quiet);
        raises_invalid "negative horizon" (fun () ->
            toy_run ~members:2 ~until:(Sim.Time.ns (-1)) quiet);
        raises_invalid "negative member count" (fun () ->
            toy_run ~members:(-1) ~until:(Sim.Time.s 1.) quiet);
        List.iter
          (fun dst ->
            raises_invalid (Printf.sprintf "post to %d" dst) (fun () ->
                toy_run ~members:2 ~until:(Sim.Time.s 1.) (fun ~member ~k:_ ->
                    if member = 1 then [ (dst, "lost") ] else [])))
          [ -1; 2 ]);
    Alcotest.test_case "horizon flush delivers final-epoch mail at until" `Quick (fun () ->
        let until = Sim.Time.s 2.5 in
        let w =
          toy_run ~members:2 ~until (fun ~member ~k ->
              if member = 1 && k = 2 then [ (0, "late") ] else [])
        in
        Alcotest.check delivery "delivered at the horizon"
          [ (Sim.Time.to_ns until, 1, [ "late" ]) ]
          (deliveries w.(0)));
    Alcotest.test_case "member failure names seed, member and epoch" `Quick (fun () ->
        Printexc.record_backtrace true;
        let report ?(shards = 1) ?(jobs = 1) failing =
          let fail ~member ~k = if List.mem (member, k) failing then raise (Boom member) in
          match
            toy_run ~jobs ~shards ~fail ~members:8 ~until:(Sim.Time.s 6.) (interleaved ~members:8)
          with
          | _ -> Alcotest.fail "no failure raised"
          | exception (Sim.Parallel.Member_failed { seed; member; epoch; at; exn } as e) ->
            Alcotest.(check bool) "backtrace starts at the member's raise" true
              (raised_here (Printexc.get_backtrace ()));
            Alcotest.(check bool) "original exception kept" true
              (match exn with Boom m -> m = member | _ -> false);
            Alcotest.(check string) "printed with its context"
              (Printf.sprintf "Sim.Parallel.Member_failed: seed %d, member %d, epoch %d (barrier %s): %s"
                 seed member epoch (Sim.Time.to_string at) (Printexc.to_string exn))
              (Printexc.to_string e);
            ((seed, member), (epoch, Sim.Time.to_ns at))
        in
        let fields = Alcotest.(pair (pair int int) (pair int int64)) in
        (* members 2 and 5 both raise in epoch 3: member 2 is reported at
           any partition, with the epoch's closing barrier *)
        List.iter
          (fun (shards, jobs) ->
            Alcotest.check fields
              (Printf.sprintf "epoch 3 at shards %d jobs %d" shards jobs)
              ((5, 2), (3, Sim.Time.to_ns (Sim.Time.s 4.)))
              (report ~shards ~jobs [ (5, 3); (2, 3) ]))
          [ (1, 1); (4, 1); (4, 2) ];
        (* a delivery failing in the horizon flush is epoch 6 of 6, at [until] *)
        Alcotest.check fields "horizon flush"
          ((5, 4), (6, Sim.Time.to_ns (Sim.Time.s 6.)))
          (report ~shards:4 ~jobs:2 [ (4, 6) ]));
    Alcotest.test_case "fork_member is deterministic and member-distinct" `Quick (fun () ->
        let ctx = Sim.Ctx.create ~seed:7 () in
        let seed_of m = Sim.Ctx.seed (Sim.Ctx.fork_member ctx ~member:m) in
        Alcotest.(check int) "stable" (seed_of 3) (seed_of 3);
        let seeds = List.init 64 seed_of in
        Alcotest.(check int) "64 distinct member seeds" 64
          (List.length (List.sort_uniq Int.compare seeds)));
  ]

(* ---- migration streams ---- *)

let stream_tests =
  [
    Alcotest.test_case "capture/resume moves the guest byte-for-byte" `Quick (fun () ->
        let l0 ctx name =
          let uplink = Net.Fabric.Switch.create ctx ~name:(name ^ "-up") ~link:Net.Link.lan_1gbe in
          Vmm.Hypervisor.create_l0 ctx ~name ~uplink ~addr:("10.0.0." ^ name)
        in
        let ctx = Sim.Ctx.create ~seed:11 () in
        let src_host = l0 ctx "src" in
        let cfg = { (Vmm.Qemu_config.default ~name:"mover") with Vmm.Qemu_config.memory_mb = 2 } in
        let vm =
          match Vmm.Hypervisor.launch src_host cfg with
          | Ok vm -> vm
          | Error e -> Alcotest.fail e
        in
        let ram = Vmm.Vm.ram vm in
        for i = 0 to 99 do
          ignore (Memory.Address_space.write ram (i * 3) (Memory.Page.Content.of_int i))
        done;
        let d = Migration.Stream.capture vm in
        Alcotest.(check string) "name travels" "mover" d.Migration.Stream.vm_name;
        Alcotest.(check int) "only nonzero pages ship" 100 (Migration.Stream.page_count d);
        let dst_ctx = Sim.Ctx.create ~seed:12 () in
        let dst_host = l0 dst_ctx "dst" in
        (match Migration.Stream.resume dst_host ~incoming_port:9099 d with
        | Error e -> Alcotest.fail e
        | Ok vm' ->
          Alcotest.(check bool) "alive on arrival" true (Vmm.Vm.is_alive vm');
          let ram' = Vmm.Vm.ram vm' in
          Alcotest.(check int) "same size" (Memory.Address_space.pages ram)
            (Memory.Address_space.pages ram');
          for i = 0 to Memory.Address_space.pages ram - 1 do
            if
              not
                (Memory.Page.Content.equal
                   (Memory.Address_space.read ram i)
                   (Memory.Address_space.read ram' i))
            then Alcotest.failf "page %d differs after resume" i
          done));
  ]

(* ---- fabric default route ---- *)

let fabric_tests =
  [
    Alcotest.test_case "unknown addresses fall through to the default route" `Quick
      (fun () ->
        let ctx = Sim.Ctx.create ~seed:3 () in
        let sw = Net.Fabric.Switch.create ctx ~name:"uplink" ~link:Net.Link.lan_1gbe in
        let node = Net.Fabric.Node.create ~addr:"10.0.0.1" in
        Net.Fabric.Node.attach node sw;
        let got = ref [] in
        Net.Fabric.Switch.set_default_route sw
          (Some (fun p -> got := p.Net.Packet.dst.Net.Packet.addr :: !got));
        let send dst =
          Net.Fabric.Switch.send sw
            (Net.Packet.make ~id:0
               ~src:(Net.Packet.endpoint "10.0.0.1" 1)
               ~dst:(Net.Packet.endpoint dst 7) "hi")
        in
        send "fleet-9";
        send "fleet-2";
        ignore (Sim.Engine.run (Sim.Ctx.engine ctx));
        Alcotest.(check (list string)) "routed in send order" [ "fleet-9"; "fleet-2" ]
          (List.rev !got);
        Alcotest.(check int) "routed counter" 2 (Net.Fabric.Switch.packets_routed sw));
  ]

(* ---- the headline properties ---- *)

let small_spec ~hosts ~tenants ~infect ~churn =
  {
    Fleet.Spec.default with
    Fleet.Spec.hosts;
    racks = (if hosts >= 2 then 2 else 1);
    tenants_per_host = tenants;
    infection_rate = infect;
    boot_per_hour = churn;
    kill_per_hour = churn;
    migrate_per_hour = churn;
    duration = Sim.Time.minutes 8.;
  }

(* One full observable surface of a fleet run: rendered report,
   telemetry export, and the SOC detection log. Byte-equality of this
   string across partitions is exactly the CI guarantee. *)
let surface ~shards ~jobs ~seed spec =
  let tel = Sim.Telemetry.create () in
  let ctx = Sim.Ctx.with_telemetry (Sim.Ctx.create ~seed ()) (Some tel) in
  let r = Fleet.World.run ~jobs ~shards ctx spec in
  let detections =
    List.map
      (fun d ->
        Printf.sprintf "%d:%s:%Ld:%Ld:%d" d.Cloudskulk.Fleet_soc.det_host
          d.Cloudskulk.Fleet_soc.det_tenant
          (Sim.Time.to_ns d.Cloudskulk.Fleet_soc.det_at)
          (Sim.Time.to_ns d.Cloudskulk.Fleet_soc.det_ttd)
          d.Cloudskulk.Fleet_soc.det_probes)
      r.Fleet.World.detections
  in
  ( Fleet.World.render r
    ^ "\n--- telemetry ---\n"
    ^ Sim.Telemetry.prometheus_string tel
    ^ "\n--- detections ---\n" ^ String.concat "\n" detections,
    r )

let partition_cases =
  (* (seed, hosts, tenants, infection rate, churn/hour) - includes a
     single-host fleet (streams drop), a high-churn fleet (streams park
     and forward), and an all-infected fleet (detector pressure) *)
  [
    (42, 4, 2, 0.3, 12.);
    (7, 1, 2, 1.0, 20.);
    (19, 5, 1, 0.5, 30.);
    (3, 6, 3, 0.0, 6.);
  ]

let partition_tests =
  [
    Alcotest.test_case "fleet surface is invariant under shards x jobs" `Slow (fun () ->
        List.iter
          (fun (seed, hosts, tenants, infect, churn) ->
            let spec = small_spec ~hosts ~tenants ~infect ~churn in
            let base, _ = surface ~shards:1 ~jobs:1 ~seed spec in
            List.iter
              (fun (shards, jobs) ->
                let got, _ = surface ~shards ~jobs ~seed spec in
                Alcotest.(check string)
                  (Printf.sprintf "seed %d, %d hosts: shards=%d jobs=%d" seed hosts shards
                     jobs)
                  base got)
              [ (1, 4); (2, 1); (2, 4); (4, 1); (4, 4); (3, 2) ])
          partition_cases);
  ]

let conservation_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"churn conserves VMs and respects capacity" ~count:12
         QCheck.(
           quad (int_range 0 1000) (int_range 1 5) (int_range 0 3) (int_range 0 30))
         (fun (seed, hosts, tenants, churn) ->
           let spec =
             small_spec ~hosts ~tenants ~infect:0.25 ~churn:(float_of_int churn)
           in
           let r = Fleet.World.run ~jobs:1 ~shards:2 (Sim.Ctx.create ~seed ()) spec in
           (match Fleet.World.conservation r with
           | Ok () -> ()
           | Error e -> QCheck.Test.fail_reportf "conservation: %s" e);
           Array.iter
             (fun h ->
               if h.Fleet.Host.r_alive > h.Fleet.Host.r_capacity then
                 QCheck.Test.fail_reportf "host %d alive %d > capacity %d"
                   h.Fleet.Host.r_host h.Fleet.Host.r_alive h.Fleet.Host.r_capacity)
             r.Fleet.World.reports;
           (* every stream that left a host arrived somewhere, waits in
              a queue, or was dropped by a fleet with nowhere to put it *)
           Fleet.World.emigrations r
           = Fleet.World.immigrations r + Fleet.World.dropped r + Fleet.World.parked r));
  ]

let detection_tests =
  [
    Alcotest.test_case "infected hosts get detected and reported to the SOC" `Slow
      (fun () ->
        let spec =
          {
            (small_spec ~hosts:4 ~tenants:2 ~infect:1.0 ~churn:2.) with
            Fleet.Spec.duration = Sim.Time.minutes 40.;
          }
        in
        let _, r = surface ~shards:2 ~jobs:1 ~seed:42 spec in
        Alcotest.(check int) "all four hosts infected" 4 (Fleet.World.infected_hosts r);
        Alcotest.(check bool) "most hosts detected" true (Fleet.World.detected_hosts r >= 3);
        Alcotest.(check bool) "SOC saw the verdict reports" true
          (List.length r.Fleet.World.detections >= 3);
        List.iter
          (fun d ->
            Alcotest.(check bool) "positive time-to-detection" true
              (Sim.Time.compare d.Cloudskulk.Fleet_soc.det_ttd Sim.Time.zero > 0))
          r.Fleet.World.detections);
    Alcotest.test_case "spec validation rejects degenerate fleets" `Quick (fun () ->
        let bad f = Result.is_error (Fleet.Spec.validate f) in
        Alcotest.(check bool) "zero hosts" true
          (bad { Fleet.Spec.default with Fleet.Spec.hosts = 0 });
        Alcotest.(check bool) "racks > hosts" true
          (bad { Fleet.Spec.default with Fleet.Spec.hosts = 2; racks = 3 });
        Alcotest.(check bool) "negative infection" true
          (bad { Fleet.Spec.default with Fleet.Spec.infection_rate = -0.1 });
        Alcotest.(check bool) "epoch explosion" true
          (bad
             {
               Fleet.Spec.default with
               Fleet.Spec.duration = Sim.Time.minutes (24. *. 60.);
               fabric_latency = Sim.Time.ms 1.;
             });
        Alcotest.(check bool) "default is fine" true
          (Result.is_ok (Fleet.Spec.validate Fleet.Spec.default)));
  ]

let () =
  Alcotest.run "fleet"
    [
      ("shard", shard_tests);
      ("stream", stream_tests);
      ("fabric", fabric_tests);
      ("partition", partition_tests);
      ("conservation", conservation_tests);
      ("detection", detection_tests);
    ]
