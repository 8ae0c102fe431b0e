(* Tests for the extension modules: guest-side timing detection and its
   manipulation (Section VI-A), the host-side install auditor, and the
   KSM covert channel (the paper's ref [41] mechanism). *)

let target_config ?(name = "guest0") ?(memory_mb = 64) () =
  let c = { (Vmm.Qemu_config.default ~name) with Vmm.Qemu_config.memory_mb } in
  Vmm.Qemu_config.with_hostfwd c [ (2222, 22) ]

let mk_world ?(seed = 42) ?ksm_config () =
  let ctx = Sim.Ctx.create ~seed () in
  let uplink = Net.Fabric.Switch.create ctx ~name:"uplink" ~link:Net.Link.lan_1gbe in
  let host =
    Vmm.Hypervisor.create_l0 ?ksm_config ctx ~name:"host" ~uplink ~addr:"192.168.1.100"
  in
  (ctx, uplink, host, Migration.Registry.create ())

let install_exn ctx host registry =
  match Cloudskulk.Install.run ctx ~host ~registry ~target_name:"guest0" with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let infected_victim ?seed () =
  let ctx, _, host, registry = mk_world ?seed () in
  ignore (Result.get_ok (Vmm.Hypervisor.launch host (target_config ())));
  let r = install_exn ctx host registry in
  (ctx, host, r.Cloudskulk.Install.ritm)

let l2_timing_tests =
  let open Cloudskulk.L2_timing_detector in
  [
    Alcotest.test_case "honest L1 guest looks normal" `Quick (fun () ->
        let _, host, _ = ((), (), ()) in
        ignore host;
        let _, _, host, _ = mk_world () in
        let vm = Result.get_ok (Vmm.Hypervisor.launch host (target_config ())) in
        let r = measure vm in
        Alcotest.(check bool) "naive normal" true (r.naive_verdict = Looks_normal);
        Alcotest.(check bool) "consistency normal" true (r.consistency_verdict = Looks_normal));
    Alcotest.test_case "unmanipulated nested victim looks nested" `Quick (fun () ->
        let _, _, ritm = infected_victim () in
        let r = measure ritm.Cloudskulk.Ritm.victim in
        Alcotest.(check bool) "naive catches it" true (r.naive_verdict = Looks_nested);
        Alcotest.(check bool) "consistency too" true (r.consistency_verdict = Looks_nested);
        (* pipe ratio should be around 65.49/6.75 ~ 9.7x *)
        let pipe = List.hd r.observations in
        Alcotest.(check bool) "pipe ratio ~10x" true (pipe.ratio > 5. && pipe.ratio < 15.));
    Alcotest.test_case "clock scaling defeats the naive detector only" `Quick (fun () ->
        let _, _, ritm = infected_victim () in
        let victim = ritm.Cloudskulk.Ritm.victim in
        hide_reference_op victim;
        let r = measure victim in
        Alcotest.(check bool) "naive fooled" true (r.naive_verdict = Looks_normal);
        (* fork's overhead profile differs from pipe's, so a constant
           scale cannot normalise both: fork now reads as anomalously
           FAST, and the cross-op spread is wild *)
        Alcotest.(check bool) "spread betrays the scaling" true (r.max_ratio_spread > 2.));
    Alcotest.test_case "full result spoofing defeats everything" `Quick (fun () ->
        let _, _, ritm = infected_victim () in
        let victim = ritm.Cloudskulk.Ritm.victim in
        spoof_results victim;
        let r = measure victim in
        Alcotest.(check bool) "naive fooled" true (r.naive_verdict = Looks_normal);
        Alcotest.(check bool) "consistency fooled" true (r.consistency_verdict = Looks_normal);
        Alcotest.(check bool) "spread flat" true (r.max_ratio_spread < 1.1);
        stop_spoofing victim;
        let r2 = measure victim in
        Alcotest.(check bool) "anomaly returns" true (r2.naive_verdict = Looks_nested));
    Alcotest.test_case "guest clock scale validates input" `Quick (fun () ->
        let _, _, host, _ = mk_world () in
        let vm = Result.get_ok (Vmm.Hypervisor.launch host (target_config ())) in
        Alcotest.(check bool) "rejects zero" true
          (try
             Vmm.Vm.set_guest_time_scale vm 0.;
             false
           with Invalid_argument _ -> true);
        Vmm.Vm.set_guest_time_scale vm 0.5;
        Alcotest.(check (float 1e-9)) "observe halves" 500.
          (Sim.Time.to_us (Vmm.Vm.observe_duration vm (Sim.Time.ms 1.))));
  ]

let auditor_tests =
  let open Cloudskulk.Install_auditor in
  [
    Alcotest.test_case "quiet host yields no findings" `Quick (fun () ->
        let _, _, host, _ = mk_world () in
        ignore (Result.get_ok (Vmm.Hypervisor.launch host (target_config ())));
        Alcotest.(check int) "none" 0 (List.length (audit host)));
    Alcotest.test_case "benign second guest is not flagged" `Quick (fun () ->
        let _, _, host, _ = mk_world () in
        ignore (Result.get_ok (Vmm.Hypervisor.launch host (target_config ())));
        ignore
          (Result.get_ok (Vmm.Hypervisor.launch host (target_config ~name:"other" ())));
        Alcotest.(check bool) "not alarming" false (is_alarming (audit host)));
    Alcotest.test_case "post-install footprints are alarming" `Quick (fun () ->
        let ctx, _, host, registry = mk_world () in
        ignore (Result.get_ok (Vmm.Hypervisor.launch host (target_config ())));
        (* a busy host keeps spawning processes; any process born between
           the victim's QEMU and GuestX makes the later PID spoof show
           up as a PID/start-time inversion *)
        ignore
          (Vmm.Process_table.spawn
             (Vmm.Hypervisor.processes host)
             ~name:"dnf" ~cmdline:"/usr/bin/dnf makecache");
        ignore (install_exn ctx host registry);
        let findings = audit host in
        let codes = List.map (fun f -> f.code) findings in
        Alcotest.(check bool) "pid inversion seen" true (List.mem Pid_inversion codes);
        Alcotest.(check bool) "forward to vmx guest seen" true
          (List.mem Forward_to_vmx_guest codes);
        Alcotest.(check bool) "vmcs seen" true (List.mem Vmcs_signature codes);
        Alcotest.(check bool) "alarming" true (is_alarming findings));
    Alcotest.test_case "no-VT-x install still trips the behavioral checks" `Quick (fun () ->
        let ctx, _, host, registry = mk_world () in
        ignore (Result.get_ok (Vmm.Hypervisor.launch host (target_config ())));
        ignore
          (Vmm.Process_table.spawn
             (Vmm.Hypervisor.processes host)
             ~name:"dnf" ~cmdline:"/usr/bin/dnf makecache");
        let config =
          { Cloudskulk.Install.default_config with
            Cloudskulk.Install.use_vtx = false }
        in
        (match Cloudskulk.Install.run ~config ctx ~host ~registry ~target_name:"guest0" with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e);
        let findings = audit host in
        let codes = List.map (fun f -> f.code) findings in
        Alcotest.(check bool) "no vmcs this time" false (List.mem Vmcs_signature codes);
        Alcotest.(check bool) "still alarming (pid inversion + forward)" true
          (is_alarming findings));
    Alcotest.test_case "mid-install window shows the staging" `Quick (fun () ->
        (* reproduce steps 2-3 by hand and audit before the migration *)
        let ctx, _, host, _ = mk_world () in
        ignore (Result.get_ok (Vmm.Hypervisor.launch host (target_config ())));
        let guestx_cfg =
          Vmm.Qemu_config.with_nested_vmx
            { (target_config ~name:"guestx" ~memory_mb:128 ()) with
              Vmm.Qemu_config.netdev =
                { (Vmm.Qemu_config.default ~name:"guestx").Vmm.Qemu_config.netdev with
                  Vmm.Qemu_config.hostfwd = [ (5600, 5601) ] };
              monitor_port = 5556 }
            true
        in
        let guestx = Result.get_ok (Vmm.Hypervisor.launch host guestx_cfg) in
        let hv = Result.get_ok (Vmm.Hypervisor.create_nested ctx ~vm:guestx ~name:"hv") in
        ignore
          (Result.get_ok
             (Vmm.Hypervisor.launch hv
                (Vmm.Qemu_config.with_incoming (target_config ~name:"dest" ()) ~port:5601)));
        let findings = audit host in
        let codes = List.map (fun f -> f.code) findings in
        Alcotest.(check bool) "vmx colaunch" true (List.mem Vmx_colaunch codes);
        Alcotest.(check bool) "forward to vmx guest" true (List.mem Forward_to_vmx_guest codes));
    Alcotest.test_case "a legitimate cross-host migration target is only info" `Quick
      (fun () ->
        let _, _, host, _ = mk_world () in
        (* an incoming VM with no matching local source: routine *)
        ignore
          (Result.get_ok
             (Vmm.Hypervisor.launch host
                (Vmm.Qemu_config.with_incoming (target_config ~name:"arriving" ()) ~port:4444)));
        let findings = audit host in
        Alcotest.(check bool) "not alarming" false (is_alarming findings);
        Alcotest.(check bool) "but noted" true
          (List.exists (fun f -> f.code = Local_incoming && f.severity = Info) findings));
  ]

let covert_tests =
  let open Cloudskulk.Covert_channel in
  let mk_pair () =
    let _, _, host, _ = mk_world ~ksm_config:Memory.Ksm.fast_config () in
    let sender = Result.get_ok (Vmm.Hypervisor.launch host (target_config ~name:"sender" ())) in
    let receiver =
      Result.get_ok (Vmm.Hypervisor.launch host (target_config ~name:"receiver" ()))
    in
    (host, sender, receiver)
  in
  [
    Alcotest.test_case "bits cross the channel intact" `Quick (fun () ->
        let host, sender, receiver = mk_pair () in
        let bits = [ true; false; true; true; false; false; true; false ] in
        match transmit ~host ~sender ~receiver bits with
        | Ok t ->
          Alcotest.(check (list bool)) "received" bits t.received;
          Alcotest.(check int) "no errors" 0 t.bit_errors;
          Alcotest.(check bool) "bandwidth positive" true (t.bandwidth_bits_per_s > 0.)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "a whole string survives" `Quick (fun () ->
        let host, sender, receiver = mk_pair () in
        let message = "exfil" in
        match transmit ~host ~sender ~receiver (string_to_bits message) with
        | Ok t -> Alcotest.(check string) "decoded" message (bits_to_string t.received)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "consecutive frames do not interfere" `Quick (fun () ->
        let host, sender, receiver = mk_pair () in
        let f1 = [ true; true; false ] and f2 = [ false; true; true ] in
        (match transmit ~host ~sender ~receiver f1 with
        | Ok t -> Alcotest.(check int) "frame 1 clean" 0 t.bit_errors
        | Error e -> Alcotest.fail e);
        match transmit ~host ~sender ~receiver f2 with
        | Ok t ->
          Alcotest.(check (list bool)) "frame 2" f2 t.received;
          Alcotest.(check int) "frame 2 clean" 0 t.bit_errors
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "channel requires ksmd" `Quick (fun () ->
        (* a host without KSM: build one and stop its daemon, then the
           channel still works mechanically only if pages merge - with
           ksmd stopped nothing merges and every 1-bit is lost *)
        let _, _, host, _ = mk_world ~ksm_config:Memory.Ksm.fast_config () in
        let sender =
          Result.get_ok (Vmm.Hypervisor.launch host (target_config ~name:"sender" ()))
        in
        let receiver =
          Result.get_ok (Vmm.Hypervisor.launch host (target_config ~name:"receiver" ()))
        in
        (match Vmm.Hypervisor.ksm host with
        | Some ksm -> Memory.Ksm.stop ksm
        | None -> ());
        match transmit ~host ~sender ~receiver [ true; true; true ] with
        | Ok t -> Alcotest.(check int) "all ones lost" 3 t.bit_errors
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "string round trip helpers" `Quick (fun () ->
        Alcotest.(check string) "ascii" "hello!" (bits_to_string (string_to_bits "hello!"));
        Alcotest.(check int) "8 bits per char" 16 (List.length (string_to_bits "ab")));
  ]

let covert_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"covert channel is error-free for random frames" ~count:10
         QCheck.(list_of_size Gen.(int_range 1 12) bool)
         (fun bits ->
           let _, _, host, _ = mk_world ~ksm_config:Memory.Ksm.fast_config () in
           let sender =
             Result.get_ok (Vmm.Hypervisor.launch host (target_config ~name:"sender" ()))
           in
           let receiver =
             Result.get_ok (Vmm.Hypervisor.launch host (target_config ~name:"receiver" ()))
           in
           match Cloudskulk.Covert_channel.transmit ~host ~sender ~receiver bits with
           | Ok t -> t.Cloudskulk.Covert_channel.bit_errors = 0
           | Error _ -> false));
  ]

(* The detector service: tenant registration, verdict flips, probe
   failures and the audit-triggered escalation path, driven by the
   continuous monitor on the engine clock. *)
let service_tests =
  let open Cloudskulk.Detector_service in
  let make_world_with_service ?(policy = default_policy) () =
    let ctx, _, host, registry = mk_world () in
    let vm = Result.get_ok (Vmm.Hypervisor.launch host (target_config ())) in
    let service = create ~policy ctx host in
    let vm_ref = ref vm in
    let ritm_ref = ref None in
    let env () =
      let vm = !vm_ref in
      {
        Cloudskulk.Dedup_detector.ctx;
        host;
        deliver_to_guest =
          (fun image ->
            match Vmm.Vm.load_file vm image with
            | Error e -> Error e
            | Ok _ -> (
              match !ritm_ref with
              | None -> Ok ()
              | Some ritm ->
                Result.map (fun () -> ())
                  (Cloudskulk.Stealth.mirror_file ~guestx:ritm.Cloudskulk.Ritm.guestx
                     ~victim:vm
                     ~name:(Memory.File_image.name image))));
        mutate_in_guest =
          (fun ~name ~salt ->
            match Vmm.Vm.file_offset vm name with
            | None -> Error "no such file"
            | Some off ->
              let pages =
                match
                  List.find_opt (fun (n, _, _) -> n = name) (Vmm.Vm.loaded_files vm)
                with
                | Some (_, _, p) -> p
                | None -> 0
              in
              let ram = Vmm.Vm.ram vm in
              for i = 0 to pages - 1 do
                let c = Memory.Address_space.read ram (off + i) in
                ignore
                  (Memory.Address_space.write ram (off + i)
                     (Memory.Page.Content.mutate c ~salt))
              done;
              Ok ());
      }
    in
    register_tenant service ~name:"guest0" ~env;
    (ctx, host, registry, service, vm_ref, ritm_ref)
  in
  (* audits every 5 min; each tenant probes every 10 min (+/- jitter) *)
  let quick = { default_policy with sweep_every = Sim.Time.minutes 5.; dedup_every_n_sweeps = 2 } in
  let run ctx d = ignore (Sim.Engine.run_for (Sim.Ctx.engine ctx) d) in
  (* every tenant's first probe falls inside one rotation interval *)
  let first_rotation = Sim.Time.minutes 10. in
  [
    Alcotest.test_case "first probe records a clean verdict" `Quick (fun () ->
        let ctx, _, _, service, _, _ = make_world_with_service ~policy:quick () in
        start_monitor service;
        run ctx first_rotation;
        (match events service with
        | [ Verdict_flip { before = None; after = Cloudskulk.Dedup_detector.No_nested_vm; _ } ]
          -> ()
        | evs ->
          Alcotest.failf "expected one None -> clean flip, got [%s]"
            (String.concat "; " (List.map event_to_string evs)));
        (match tenant_state service "guest0" with
        | Some st ->
          Alcotest.(check bool) "clean" true
            (st.last_verdict = Some Cloudskulk.Dedup_detector.No_nested_vm)
        | None -> Alcotest.fail "tenant missing");
        Alcotest.(check (list string)) "no compromised tenants" []
          (compromised_tenants service));
    Alcotest.test_case "an attack flips the verdict and raises events" `Quick (fun () ->
        (* probes rotate every 80 min, so the next audit, not a probe,
           is the first to see the install *)
        let policy = { quick with dedup_every_n_sweeps = 16 } in
        let ctx, host, registry, service, vm_ref, ritm_ref =
          make_world_with_service ~policy ()
        in
        start_monitor service;
        pull_probes_forward service;
        run ctx (Sim.Time.minutes 1.);
        Alcotest.(check int) "clean probe ran" 1
          (match tenant_state service "guest0" with Some st -> st.probes | None -> 0);
        (* attack happens between probes *)
        let report =
          match Cloudskulk.Install.run ctx ~host ~registry ~target_name:"guest0" with
          | Ok r -> r
          | Error e -> Alcotest.fail e
        in
        vm_ref := report.Cloudskulk.Install.ritm.Cloudskulk.Ritm.victim;
        ritm_ref := Some report.Cloudskulk.Install.ritm;
        run ctx policy.sweep_every;
        let evs = events service in
        Alcotest.(check bool) "audit alarm raised" true
          (List.exists (function Audit_alarm _ -> true | _ -> false) evs);
        Alcotest.(check bool) "verdict flip raised" true
          (List.exists
             (function
               | Verdict_flip { after = Cloudskulk.Dedup_detector.Nested_vm_detected; _ } ->
                 true
               | _ -> false)
             evs);
        Alcotest.(check (list string)) "tenant listed as compromised" [ "guest0" ]
          (compromised_tenants service));
    Alcotest.test_case "probe failure is an event, not a crash" `Quick (fun () ->
        let ctx, _, host, _ = mk_world () in
        let service = create ~policy:quick ctx host in
        register_tenant service ~name:"ghost" ~env:(fun () ->
            {
              Cloudskulk.Dedup_detector.ctx;
              host;
              deliver_to_guest = (fun _ -> Error "agent unreachable");
              mutate_in_guest = (fun ~name:_ ~salt:_ -> Ok ());
            });
        start_monitor service;
        run ctx first_rotation;
        Alcotest.(check bool) "probe_failed event" true
          (List.exists (function Probe_failed _ -> true | _ -> false) (events service)));
  ]

let () =
  Alcotest.run "extensions"
    [
      ("l2_timing", l2_timing_tests);
      ("install_auditor", auditor_tests);
      ("covert_channel", covert_tests @ covert_props);
      ("detector_service", service_tests);
    ]
