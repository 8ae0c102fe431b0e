(* Tests for live migration: the registry (endpoint resolution through
   forwarding chains), pre-copy (rounds, convergence, content transfer,
   state machine), post-copy, and the monitor wiring. *)

let small_config ?(name = "guest0") ?(memory_mb = 8) () =
  { (Vmm.Qemu_config.default ~name) with Vmm.Qemu_config.memory_mb }

let mk_pair ?(nested = false) ?(memory_mb = 8) () =
  Vmm.Layers.migration_pair ~ksm_config:Memory.Ksm.fast_config
    ~config:(small_config ~memory_mb ()) ~nested_dest:nested (Sim.Ctx.create ())

let migrate_exn ?config ?fault ctx ~source ~dest =
  match Migration.Precopy.migrate ?config ?fault ctx ~source ~dest () with
  | Ok o -> Migration.Outcome.stats_exn o
  | Error e -> Alcotest.fail e

let registry_tests =
  [
    Alcotest.test_case "direct listener resolves" `Quick (fun () ->
        let mp = mk_pair () in
        let reg = Migration.Registry.create () in
        Migration.Registry.register_incoming reg ~addr:"10.0.0.2" ~port:5601
          mp.Vmm.Layers.mp_dest;
        (match Migration.Registry.resolve reg ~addr:"10.0.0.2" ~port:5601 with
        | Ok vm -> Alcotest.(check string) "dest" "dest" (Vmm.Vm.name vm)
        | Error e -> Alcotest.fail e));
    Alcotest.test_case "forward chain resolves with hop count" `Quick (fun () ->
        let mp = mk_pair () in
        let reg = Migration.Registry.create () in
        Migration.Registry.register_incoming reg ~addr:"10.0.0.7" ~port:5601
          mp.Vmm.Layers.mp_dest;
        Migration.Registry.add_forward reg ~addr:"192.168.1.100" ~port:5600 ~to_addr:"10.0.0.7"
          ~to_port:5601;
        (match Migration.Registry.resolve reg ~addr:"192.168.1.100" ~port:5600 with
        | Ok vm -> Alcotest.(check string) "dest" "dest" (Vmm.Vm.name vm)
        | Error e -> Alcotest.fail e);
        Alcotest.(check int) "one hop" 1
          (Migration.Registry.hops reg ~addr:"192.168.1.100" ~port:5600));
    Alcotest.test_case "nothing listening" `Quick (fun () ->
        let reg = Migration.Registry.create () in
        Alcotest.(check bool) "refused" true
          (Result.is_error (Migration.Registry.resolve reg ~addr:"1.2.3.4" ~port:1)));
    Alcotest.test_case "forwarding loop detected" `Quick (fun () ->
        let reg = Migration.Registry.create () in
        Migration.Registry.add_forward reg ~addr:"a" ~port:1 ~to_addr:"b" ~to_port:2;
        Migration.Registry.add_forward reg ~addr:"b" ~port:2 ~to_addr:"a" ~to_port:1;
        Alcotest.(check bool) "loop error" true
          (Result.is_error (Migration.Registry.resolve reg ~addr:"a" ~port:1)));
    Alcotest.test_case "unregister removes listener" `Quick (fun () ->
        let mp = mk_pair () in
        let reg = Migration.Registry.create () in
        Migration.Registry.register_incoming reg ~addr:"x" ~port:1 mp.Vmm.Layers.mp_dest;
        Migration.Registry.unregister reg ~addr:"x" ~port:1;
        Alcotest.(check bool) "gone" true
          (Result.is_error (Migration.Registry.resolve reg ~addr:"x" ~port:1)));
  ]

(* Both drivers share one precondition check: each must refuse with the
   same text and leave both VMs as they were. Returns that text. *)
let rejected_by_both_drivers ctx ~source ~dest =
  let states () = (Vmm.Vm.state source, Vmm.Vm.state dest) in
  let before = states () in
  let refuse name = function
    | Ok _ -> Alcotest.fail (name ^ " should refuse")
    | Error e ->
      Alcotest.(check bool) (name ^ " leaves both VMs untouched") true (states () = before);
      e
  in
  let pre = refuse "precopy" (Migration.Precopy.migrate ctx ~source ~dest ()) in
  let post = refuse "postcopy" (Migration.Postcopy.migrate ctx ~source ~dest ()) in
  Alcotest.(check string) "same error from both drivers" pre post;
  pre

let precopy_tests =
  [
    Alcotest.test_case "idle migration completes and moves contents" `Quick (fun () ->
        let mp = mk_pair () in
        let ctx = mp.Vmm.Layers.mp_ctx in
        let source = mp.mp_source and dest = mp.mp_dest in
        (* plant recognisable content in the source *)
        let c = Memory.Page.Content.of_int 1234 in
        ignore (Memory.Address_space.write (Vmm.Vm.ram source) 7 c);
        let r = migrate_exn ctx ~source ~dest in
        Alcotest.(check bool) "converged" true r.Migration.Precopy.converged;
        Alcotest.(check bool) "dest running" true (Vmm.Vm.state dest = Vmm.Vm.Running);
        Alcotest.(check bool) "source paused" true (Vmm.Vm.state source = Vmm.Vm.Paused);
        Alcotest.(check bool) "content moved" true
          (Memory.Page.Content.equal c (Memory.Address_space.read (Vmm.Vm.ram dest) 7)));
    Alcotest.test_case "all pages sent at least once" `Quick (fun () ->
        let mp = mk_pair () in
        let r = migrate_exn mp.Vmm.Layers.mp_ctx ~source:mp.mp_source ~dest:mp.mp_dest in
        let pages = Memory.Address_space.pages (Vmm.Vm.ram mp.mp_source) in
        Alcotest.(check bool) "at least full RAM" true (r.Migration.Precopy.total_pages_sent >= pages));
    Alcotest.test_case "downtime below budget when converged" `Quick (fun () ->
        let mp = mk_pair () in
        let r = migrate_exn mp.Vmm.Layers.mp_ctx ~source:mp.mp_source ~dest:mp.mp_dest in
        Alcotest.(check bool) "within budget" true
          Sim.Time.(
            r.Migration.Precopy.downtime
            <= Sim.Time.add (Sim.Time.ms 300.) (Sim.Time.ms 50.)));
    Alcotest.test_case "dirtying workload forces extra rounds" `Quick (fun () ->
        let mp = mk_pair () in
        let ctx = mp.Vmm.Layers.mp_ctx in
        let source = mp.mp_source in
        let env =
          Workload.Exec_env.make ~vm:source ~ctx ~level:(Vmm.Vm.level source)
            ~ram:(Vmm.Vm.ram source)
            ~rng:(Sim.Ctx.fork_rng ctx) ()
        in
        let wl = Workload.Background.start env (Workload.Kernel_compile.background ()) in
        (* an 8 MB guest fits inside the default 300 ms downtime budget,
           so tighten it to force iterative rounds *)
        let config =
          { Migration.Precopy.default_config with
            Migration.Precopy.max_downtime = Sim.Time.ms 2. }
        in
        let r = migrate_exn ~config ctx ~source ~dest:mp.mp_dest in
        Workload.Background.stop wl;
        Alcotest.(check bool) "more than 2 rounds" true
          (List.length r.Migration.Precopy.rounds > 2));
    Alcotest.test_case "non-incoming destination rejected" `Quick (fun () ->
        let mp = mk_pair () in
        let ctx = mp.Vmm.Layers.mp_ctx in
        (* complete once, then try again: dest is now Running *)
        ignore (migrate_exn ctx ~source:mp.mp_source ~dest:mp.mp_dest);
        (match Vmm.Vm.resume mp.mp_source with Ok () -> () | Error e -> Alcotest.fail e);
        Alcotest.(check string) "error" "destination dest is running, not in incoming state"
          (rejected_by_both_drivers ctx ~source:mp.mp_source ~dest:mp.mp_dest));
    Alcotest.test_case "incompatible configs rejected" `Quick (fun () ->
        let ctx = Sim.Ctx.create () in
        let uplink = Net.Fabric.Switch.create ctx ~name:"up" ~link:Net.Link.lan_1gbe in
        let host =
          Vmm.Hypervisor.create_l0 ~ksm_config:Memory.Ksm.fast_config ctx ~name:"h" ~uplink
            ~addr:"192.168.1.100"
        in
        let src =
          Result.get_ok (Vmm.Hypervisor.launch host (small_config ~name:"src" ~memory_mb:8 ()))
        in
        let dst_cfg =
          Vmm.Qemu_config.with_incoming (small_config ~name:"dst" ~memory_mb:16 ()) ~port:5601
        in
        let dst = Result.get_ok (Vmm.Hypervisor.launch host dst_cfg) in
        Alcotest.(check string) "error" "incompatible configurations: memory size differs"
          (rejected_by_both_drivers ctx ~source:src ~dest:dst));
    Alcotest.test_case "guest identity follows the migration" `Quick (fun () ->
        let mp = mk_pair () in
        Vmm.Vm.set_os_release mp.mp_source "MarkedOS 9.9";
        ignore (migrate_exn mp.Vmm.Layers.mp_ctx ~source:mp.mp_source ~dest:mp.mp_dest);
        Alcotest.(check string) "os release moved" "MarkedOS 9.9"
          (Vmm.Vm.os_release mp.mp_dest));
    Alcotest.test_case "nested destination slower than flat" `Quick (fun () ->
        let flat = mk_pair ~nested:false () in
        let r_flat =
          migrate_exn flat.Vmm.Layers.mp_ctx ~source:flat.mp_source ~dest:flat.mp_dest
        in
        let nested = mk_pair ~nested:true () in
        let r_nested =
          migrate_exn nested.Vmm.Layers.mp_ctx ~source:nested.mp_source
            ~dest:nested.mp_dest
        in
        Alcotest.(check bool) "L0-L1 > L0-L0" true
          Sim.Time.(r_nested.Migration.Precopy.total_time > r_flat.Migration.Precopy.total_time));
    Alcotest.test_case "estimated_idle_time matches an idle run's scale" `Quick (fun () ->
        let mp = mk_pair () in
        let pages = Memory.Address_space.pages (Vmm.Vm.ram mp.mp_source) in
        (* one round carrying every page with its 8-byte header *)
        let est =
          Sim.Time.to_s
            (Net.Link.transfer_time Net.Link.migration_loopback
               (pages * (Memory.Page.size_bytes + 8)))
        in
        let r = migrate_exn mp.Vmm.Layers.mp_ctx ~source:mp.mp_source ~dest:mp.mp_dest in
        let actual = Sim.Time.to_s r.Migration.Precopy.total_time in
        Alcotest.(check bool) "within 2x" true (actual < est *. 2. +. 1.));
    Alcotest.test_case "zero page optimization shrinks idle transfer" `Quick (fun () ->
        let mp = mk_pair () in
        let config =
          { Migration.Precopy.default_config with Migration.Precopy.zero_page_optimization = true }
        in
        let r =
          migrate_exn ~config mp.Vmm.Layers.mp_ctx ~source:mp.mp_source ~dest:mp.mp_dest
        in
        (* an idle 8 MB guest is almost all zero pages *)
        let full_bytes = 8 * 1024 * 1024 in
        Alcotest.(check bool) "far less than full" true
          (r.Migration.Precopy.total_bytes_sent < full_bytes / 2));
  ]

let auto_converge_tests =
  let run_with_compile ~auto_converge =
    let mp = mk_pair () in
    let ctx = mp.Vmm.Layers.mp_ctx in
    let source = mp.mp_source in
    let env =
      Workload.Exec_env.make ~vm:source ~ctx ~level:(Vmm.Vm.level source)
        ~ram:(Vmm.Vm.ram source)
        ~rng:(Sim.Ctx.fork_rng ctx) ()
    in
    (* dirty faster than the channel drains so plain pre-copy can never
       converge on its own *)
    let wl =
      Workload.Background.start env
        (Workload.Kernel_compile.background ~pages_per_second:40_000. ())
    in
    let config =
      { Migration.Precopy.default_config with
        Migration.Precopy.max_downtime = Sim.Time.ms 2.;
        max_rounds = 20;
        auto_converge;
      }
    in
    let r = migrate_exn ~config ctx ~source ~dest:mp.mp_dest in
    Workload.Background.stop wl;
    (r, wl, source)
  in
  [
    Alcotest.test_case "auto-converge throttles and converges" `Quick (fun () ->
        let without, _, _ = run_with_compile ~auto_converge:false in
        let with_, wl, source = run_with_compile ~auto_converge:true in
        Alcotest.(check bool) "uncapped run hits the round cap" false
          without.Migration.Precopy.converged;
        Alcotest.(check bool) "throttled run converges" true with_.Migration.Precopy.converged;
        Alcotest.(check bool) "throttle was applied" true
          (with_.Migration.Precopy.max_throttle > 0.1);
        Alcotest.(check bool) "workload lost ticks" true
          (Workload.Background.throttled_ticks wl > 0);
        Alcotest.(check (float 1e-9)) "throttle released afterwards" 0.
          (Vmm.Vm.cpu_throttle source));
    Alcotest.test_case "xbzrle shrinks re-sent bytes" `Quick (fun () ->
        let run ~xbzrle =
          let mp = mk_pair () in
          let ctx = mp.Vmm.Layers.mp_ctx in
          let source = mp.mp_source in
          let env =
            Workload.Exec_env.make ~vm:source ~ctx ~level:(Vmm.Vm.level source)
              ~ram:(Vmm.Vm.ram source)
              ~rng:(Sim.Ctx.fork_rng ctx) ()
          in
          let wl =
            Workload.Background.start env
              (Workload.Kernel_compile.background ~pages_per_second:5000. ())
          in
          let config =
            { Migration.Precopy.default_config with
              Migration.Precopy.max_downtime = Sim.Time.ms 2.;
              xbzrle;
            }
          in
          let r = migrate_exn ~config ctx ~source ~dest:mp.mp_dest in
          Workload.Background.stop wl;
          r
        in
        let plain = run ~xbzrle:false in
        let compressed = run ~xbzrle:true in
        Alcotest.(check bool) "fewer wire bytes" true
          (compressed.Migration.Precopy.total_bytes_sent
          < plain.Migration.Precopy.total_bytes_sent);
        Alcotest.(check bool) "not slower" true
          Sim.Time.(
            compressed.Migration.Precopy.total_time <= plain.Migration.Precopy.total_time));
    Alcotest.test_case "xbzrle never deltas first-time pages" `Quick (fun () ->
        (* an idle migration sends every page exactly once: xbzrle must
           change nothing *)
        let run ~xbzrle =
          let mp = mk_pair () in
          let config = { Migration.Precopy.default_config with Migration.Precopy.xbzrle } in
          migrate_exn ~config mp.Vmm.Layers.mp_ctx ~source:mp.mp_source ~dest:mp.mp_dest
        in
        Alcotest.(check int) "same bytes either way"
          (run ~xbzrle:false).Migration.Precopy.total_bytes_sent
          (run ~xbzrle:true).Migration.Precopy.total_bytes_sent);
    Alcotest.test_case "auto-converge off leaves the throttle untouched" `Quick (fun () ->
        let r, wl, source = run_with_compile ~auto_converge:false in
        Alcotest.(check (float 1e-9)) "no throttle" 0. r.Migration.Precopy.max_throttle;
        Alcotest.(check int) "no lost ticks" 0 (Workload.Background.throttled_ticks wl);
        Alcotest.(check (float 1e-9)) "vm untouched" 0. (Vmm.Vm.cpu_throttle source));
  ]

let migration_props =
  let contents_equal a b =
    let ca = Memory.Address_space.contents a and cb = Memory.Address_space.contents b in
    Array.length ca = Array.length cb && Array.for_all2 Memory.Page.Content.equal ca cb
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"precopy: destination RAM equals source RAM at completion, under random dirtying"
         ~count:15 QCheck.small_int
         (fun seed ->
           let mp = mk_pair ~nested:(seed mod 2 = 0) () in
           let ctx = mp.Vmm.Layers.mp_ctx in
           let source = mp.Vmm.Layers.mp_source in
           (* a random background dirtier *)
           let env =
             Workload.Exec_env.make ~vm:source ~ctx ~level:(Vmm.Vm.level source)
               ~ram:(Vmm.Vm.ram source)
               ~rng:(Sim.Rng.create seed) ()
           in
           let rate = 100. +. float_of_int (seed mod 7) *. 400. in
           let wl =
             Workload.Background.start env
               (Workload.Kernel_compile.background ~pages_per_second:rate ())
           in
           let ok =
             match Migration.Precopy.migrate ctx ~source ~dest:mp.Vmm.Layers.mp_dest () with
             | Ok _ ->
               (* the source is paused at completion, so the final
                  stop-and-copy must have left both sides identical *)
               contents_equal (Vmm.Vm.ram source) (Vmm.Vm.ram mp.Vmm.Layers.mp_dest)
             | Error _ -> false
           in
           Workload.Background.stop wl;
           ok));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"postcopy: destination RAM equals source RAM at completion"
         ~count:10 QCheck.small_int
         (fun seed ->
           let mp = mk_pair ~nested:(seed mod 2 = 1) () in
           let ctx = mp.Vmm.Layers.mp_ctx in
           let source = mp.Vmm.Layers.mp_source in
           let rng = Sim.Rng.create seed in
           (* pre-dirty the source with random content *)
           for _ = 1 to 200 do
             let i = Sim.Rng.int rng (Memory.Address_space.pages (Vmm.Vm.ram source)) in
             ignore
               (Memory.Address_space.write (Vmm.Vm.ram source) i
                  (Memory.Page.Content.random rng))
           done;
           match Migration.Postcopy.migrate ctx ~source ~dest:mp.Vmm.Layers.mp_dest () with
           | Ok _ -> contents_equal (Vmm.Vm.ram source) (Vmm.Vm.ram mp.Vmm.Layers.mp_dest)
           | Error _ -> false));
  ]

let postcopy_tests =
  [
    Alcotest.test_case "postcopy completes with tiny downtime" `Quick (fun () ->
        let mp = mk_pair () in
        let c = Memory.Page.Content.of_int 5 in
        ignore (Memory.Address_space.write (Vmm.Vm.ram mp.mp_source) 3 c);
        (match
           Migration.Postcopy.migrate mp.Vmm.Layers.mp_ctx ~source:mp.mp_source
             ~dest:mp.mp_dest ()
         with
        | Error e -> Alcotest.fail e
        | Ok o ->
          let r = Migration.Outcome.stats_exn o in
          Alcotest.(check bool) "downtime < 1s" true
            Sim.Time.(r.Migration.Postcopy.downtime < Sim.Time.s 1.);
          Alcotest.(check bool) "dest running" true
            (Vmm.Vm.state mp.mp_dest = Vmm.Vm.Running);
          Alcotest.(check bool) "all pages sent" true
            (r.Migration.Postcopy.total_pages_sent
            = Memory.Address_space.pages (Vmm.Vm.ram mp.mp_source));
          Alcotest.(check bool) "content moved" true
            (Memory.Page.Content.equal c (Memory.Address_space.read (Vmm.Vm.ram mp.mp_dest) 3))));
    Alcotest.test_case "postcopy downtime far below precopy total" `Quick (fun () ->
        let mp1 = mk_pair () in
        let pre = migrate_exn mp1.Vmm.Layers.mp_ctx ~source:mp1.mp_source ~dest:mp1.mp_dest in
        let mp2 = mk_pair () in
        let post =
          Migration.Outcome.stats_exn
            (Result.get_ok
               (Migration.Postcopy.migrate mp2.Vmm.Layers.mp_ctx ~source:mp2.mp_source
                  ~dest:mp2.mp_dest ()))
        in
        Alcotest.(check bool) "resume beats total" true
          Sim.Time.(post.Migration.Postcopy.resume_time < pre.Migration.Precopy.total_time));
  ]

let fault_tests =
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  (* outage-only profiles: no loss/jitter, so any behaviour change is
     attributable to the link going down *)
  let outages ~mtbf_ms ~mttr_ms =
    { Sim.Fault.none with
      Sim.Fault.mtbf = Some (Sim.Time.ms mtbf_ms);
      mttr = Sim.Time.ms mttr_ms;
    }
  in
  [
    Alcotest.test_case "fault-free migration is Completed" `Quick (fun () ->
        let mp = mk_pair () in
        match
          Migration.Precopy.migrate mp.Vmm.Layers.mp_ctx ~source:mp.mp_source
            ~dest:mp.mp_dest ()
        with
        | Ok (Migration.Outcome.Completed _ as o) ->
          Alcotest.(check string) "described" "completed" (Migration.Outcome.describe o)
        | Ok o -> Alcotest.fail ("unexpected outcome: " ^ Migration.Outcome.describe o)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "precopy aborts when the channel stays down" `Quick (fun () ->
        let mp = mk_pair () in
        let ctx = mp.Vmm.Layers.mp_ctx in
        (* the link dies ~1 ms into every transmission and no retries
           are allowed: the first round must abort the migration *)
        let fault =
          Sim.Fault.create (outages ~mtbf_ms:1. ~mttr_ms:2000.) (Sim.Ctx.fork_rng ctx)
        in
        let config =
          { Migration.Precopy.default_config with Migration.Precopy.max_retransmits = 0 }
        in
        match
          Migration.Precopy.migrate ~config ~fault ctx ~source:mp.mp_source
            ~dest:mp.mp_dest ()
        with
        | Ok
            (Migration.Outcome.Aborted
               { reason = Migration.Outcome.Channel_down _; source_resumed; _ }) ->
          Alcotest.(check bool) "source still owns the guest" true source_resumed;
          Alcotest.(check bool) "source running" true
            (Vmm.Vm.state mp.mp_source = Vmm.Vm.Running);
          Alcotest.(check bool) "dest parked in Incoming" true
            (Vmm.Vm.state mp.mp_dest = Vmm.Vm.Incoming)
        | Ok o -> Alcotest.fail ("expected channel-down abort, got " ^ Migration.Outcome.describe o)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "postcopy aborts when the working-set push stays down" `Quick (fun () ->
        let mp = mk_pair () in
        let ctx = mp.Vmm.Layers.mp_ctx in
        (* the pre-copy case's profile: the phase-1 push is cut and no
           retries are allowed, so the destination never takes over *)
        let fault =
          Sim.Fault.create (outages ~mtbf_ms:1. ~mttr_ms:2000.) (Sim.Ctx.fork_rng ctx)
        in
        let config =
          { Migration.Postcopy.default_config with Migration.Postcopy.max_retransmits = 0 }
        in
        match
          Migration.Postcopy.migrate ~config ~fault ctx ~source:mp.mp_source
            ~dest:mp.mp_dest ()
        with
        | Ok
            (Migration.Outcome.Aborted
               { reason = Migration.Outcome.Channel_down 1; source_resumed; _ }) ->
          Alcotest.(check bool) "source still owns the guest" true source_resumed;
          Alcotest.(check bool) "source running" true
            (Vmm.Vm.state mp.mp_source = Vmm.Vm.Running);
          Alcotest.(check bool) "dest parked in Incoming" true
            (Vmm.Vm.state mp.mp_dest = Vmm.Vm.Incoming)
        | Ok o -> Alcotest.fail ("expected channel-down abort, got " ^ Migration.Outcome.describe o)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "recovered precopy counts its outages" `Quick (fun () ->
        let mp = mk_pair () in
        let ctx = mp.Vmm.Layers.mp_ctx in
        (* a seed whose fault schedule cuts the first round once and
           then lets the retransmission through (fault schedules are a
           pure function of the RNG, so this is stable) *)
        let fault =
          Sim.Fault.create (outages ~mtbf_ms:100. ~mttr_ms:50.) (Sim.Rng.create 21)
        in
        match Migration.Precopy.migrate ~fault ctx ~source:mp.mp_source ~dest:mp.mp_dest () with
        | Ok (Migration.Outcome.Recovered (r, rc)) ->
          Alcotest.(check bool) "outages counted" true (rc.Migration.Outcome.outages > 0);
          Alcotest.(check bool) "retransmissions counted" true
            (rc.Migration.Outcome.retransmissions > 0);
          Alcotest.(check bool) "stall time accounted" true
            Sim.Time.(rc.Migration.Outcome.stalled > Sim.Time.zero);
          Alcotest.(check bool) "guest still moved" true
            (Vmm.Vm.state mp.mp_dest = Vmm.Vm.Running && r.Migration.Precopy.converged)
        | Ok o -> Alcotest.fail ("expected recovery, got " ^ Migration.Outcome.describe o)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "migrate_cancel aborts at a round boundary" `Quick (fun () ->
        let mp = mk_pair () in
        let ctx = mp.Vmm.Layers.mp_ctx in
        let source = mp.mp_source in
        (* keep the migration iterating so the cancel lands mid-flight *)
        let env =
          Workload.Exec_env.make ~vm:source ~ctx ~level:(Vmm.Vm.level source)
            ~ram:(Vmm.Vm.ram source)
            ~rng:(Sim.Ctx.fork_rng ctx) ()
        in
        let wl = Workload.Background.start env (Workload.Kernel_compile.background ()) in
        let config =
          { Migration.Precopy.default_config with
            Migration.Precopy.max_downtime = Sim.Time.ms 2. }
        in
        ignore
          (Sim.Engine.schedule_after (Sim.Ctx.engine ctx) (Sim.Time.ms 30.) (fun () ->
               Vmm.Vm.request_migrate_cancel source));
        let r = Migration.Precopy.migrate ~config ctx ~source ~dest:mp.mp_dest () in
        Workload.Background.stop wl;
        (match r with
        | Ok (Migration.Outcome.Aborted { reason = Migration.Outcome.Cancelled n; _ }) ->
          Alcotest.(check bool) "cancelled at a positive round" true (n >= 1);
          Alcotest.(check bool) "source running" true (Vmm.Vm.state source = Vmm.Vm.Running);
          Alcotest.(check bool) "dest untouched" true
            (Vmm.Vm.state mp.mp_dest = Vmm.Vm.Incoming)
        | Ok o -> Alcotest.fail ("expected cancel, got " ^ Migration.Outcome.describe o)
        | Error e -> Alcotest.fail e);
        (* a stale cancel must not poison the next migration *)
        Alcotest.(check bool) "flag consumed" false (Vmm.Vm.migrate_cancel_requested source));
    Alcotest.test_case "postcopy pause and monitor recovery" `Quick (fun () ->
        let mp = mk_pair () in
        let ctx = mp.Vmm.Layers.mp_ctx in
        let source = mp.mp_source and dest = mp.mp_dest in
        let rng = Sim.Rng.create 42 in
        for _ = 1 to 200 do
          let i = Sim.Rng.int rng (Memory.Address_space.pages (Vmm.Vm.ram source)) in
          ignore
            (Memory.Address_space.write (Vmm.Vm.ram source) i (Memory.Page.Content.random rng))
        done;
        (* a small working set leaves most pages to the background pull,
           and this seed's schedule severs that pull mid-stream *)
        let fault =
          Sim.Fault.create (outages ~mtbf_ms:100. ~mttr_ms:100.) (Sim.Rng.create 1)
        in
        let config =
          { Migration.Postcopy.default_config with
            Migration.Postcopy.working_set_pages = 256;
            auto_recover = false;
          }
        in
        match Migration.Postcopy.migrate ~config ~fault ctx ~source ~dest () with
        | Ok (Migration.Outcome.Aborted { reason = Migration.Outcome.Postcopy_paused; _ }) ->
          Alcotest.(check bool) "dest postcopy-paused" true
            (Vmm.Vm.state dest = Vmm.Vm.Paused);
          (match Vmm.Monitor.execute dest "migrate_recover" with
          | Vmm.Monitor.Ok_text _ -> ()
          | Vmm.Monitor.Error_text e -> Alcotest.fail e
          | Vmm.Monitor.Quit -> Alcotest.fail "quit");
          Alcotest.(check bool) "dest running after recover" true
            (Vmm.Vm.state dest = Vmm.Vm.Running);
          (* the pull resumed where it stopped: every page moved exactly
             once, none lost, none overwritten twice *)
          let ca = Memory.Address_space.contents (Vmm.Vm.ram source) in
          let cb = Memory.Address_space.contents (Vmm.Vm.ram dest) in
          Alcotest.(check bool) "no page lost or duplicated" true
            (Array.for_all2 Memory.Page.Content.equal ca cb);
          (* the handler is one-shot *)
          (match Vmm.Monitor.execute dest "migrate_recover" with
          | Vmm.Monitor.Error_text _ -> ()
          | _ -> Alcotest.fail "second recover should refuse")
        | Ok o -> Alcotest.fail ("expected postcopy-paused, got " ^ Migration.Outcome.describe o)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "info migrate reports the wired migration" `Quick (fun () ->
        let mp = mk_pair () in
        let ctx = mp.Vmm.Layers.mp_ctx in
        let reg = Migration.Registry.create () in
        Migration.Registry.register_incoming reg ~addr:"10.0.0.2" ~port:5601 mp.mp_dest;
        ignore (Migration.Wiring.wire_monitor ctx ~registry:reg ~source:mp.mp_source ());
        (match Vmm.Monitor.execute mp.mp_source "migrate tcp:10.0.0.2:5601" with
        | Vmm.Monitor.Ok_text _ -> ()
        | Vmm.Monitor.Error_text e -> Alcotest.fail e
        | Vmm.Monitor.Quit -> Alcotest.fail "quit");
        match Vmm.Monitor.execute mp.mp_source "info migrate" with
        | Vmm.Monitor.Ok_text s ->
          Alcotest.(check bool) "status line" true (contains s "Migration status: completed");
          Alcotest.(check bool) "transferred bytes line" true (contains s "transferred ram")
        | _ -> Alcotest.fail "info migrate failed");
  ]

let wiring_tests =
  [
    Alcotest.test_case "monitor migrate drives a full migration" `Quick (fun () ->
        let mp = mk_pair () in
        let ctx = mp.Vmm.Layers.mp_ctx in
        let reg = Migration.Registry.create () in
        Migration.Registry.register_incoming reg ~addr:"10.0.0.2" ~port:5601 mp.mp_dest;
        let wiring = Migration.Wiring.wire_monitor ctx ~registry:reg ~source:mp.mp_source () in
        (match Vmm.Monitor.execute mp.mp_source "migrate tcp:10.0.0.2:5601" with
        | Vmm.Monitor.Ok_text _ -> ()
        | Vmm.Monitor.Error_text e -> Alcotest.fail e
        | Vmm.Monitor.Quit -> Alcotest.fail "quit");
        Alcotest.(check bool) "dest running" true (Vmm.Vm.state mp.mp_dest = Vmm.Vm.Running);
        (match Migration.Wiring.last_result wiring with
        | Some (Migration.Wiring.Pre_copied _) -> ()
        | Some (Migration.Wiring.Post_copied _) | None -> Alcotest.fail "expected precopy result");
        Alcotest.(check bool) "endpoint consumed" true
          (Result.is_error (Migration.Registry.resolve reg ~addr:"10.0.0.2" ~port:5601)));
    Alcotest.test_case "post-copy strategy selectable" `Quick (fun () ->
        let mp = mk_pair () in
        let ctx = mp.Vmm.Layers.mp_ctx in
        let reg = Migration.Registry.create () in
        Migration.Registry.register_incoming reg ~addr:"10.0.0.2" ~port:5601 mp.mp_dest;
        let wiring =
          Migration.Wiring.wire_monitor
            ~strategy:(Migration.Wiring.Post_copy Migration.Postcopy.default_config) ctx
            ~registry:reg ~source:mp.mp_source ()
        in
        (match Vmm.Monitor.execute mp.mp_source "migrate tcp:10.0.0.2:5601" with
        | Vmm.Monitor.Ok_text _ -> ()
        | Vmm.Monitor.Error_text e -> Alcotest.fail e
        | Vmm.Monitor.Quit -> Alcotest.fail "quit");
        match Migration.Wiring.last_result wiring with
        | Some (Migration.Wiring.Post_copied _) -> ()
        | Some (Migration.Wiring.Pre_copied _) | None -> Alcotest.fail "expected postcopy result");
    Alcotest.test_case "unresolvable endpoint surfaces as monitor error" `Quick (fun () ->
        let mp = mk_pair () in
        let reg = Migration.Registry.create () in
        ignore
          (Migration.Wiring.wire_monitor mp.Vmm.Layers.mp_ctx ~registry:reg
             ~source:mp.mp_source ());
        match Vmm.Monitor.execute mp.mp_source "migrate tcp:9.9.9.9:1" with
        | Vmm.Monitor.Error_text _ -> ()
        | _ -> Alcotest.fail "expected error");
  ]

let () =
  Alcotest.run "migration"
    [
      ("registry", registry_tests);
      ("precopy", precopy_tests);
      ("auto_converge", auto_converge_tests);
      ("postcopy", postcopy_tests);
      ("faults", fault_tests);
      ("wiring", wiring_tests);
      ("properties", migration_props);
    ]
