(* Cross-cutting integration tests: the full attack story end to end,
   multi-VM hosts, deeper nesting, trace-based causality checks, and
   failure injection. *)

let target_config ?(name = "guest0") ?(memory_mb = 64) () =
  let c = { (Vmm.Qemu_config.default ~name) with Vmm.Qemu_config.memory_mb } in
  Vmm.Qemu_config.with_hostfwd c [ (2222, 22) ]

let mk_world ?(seed = 42) () =
  let ctx = Sim.Ctx.create ~seed () in
  let trace = Sim.Ctx.trace ctx in
  let uplink = Net.Fabric.Switch.create ctx ~name:"uplink" ~link:Net.Link.lan_1gbe in
  let host = Vmm.Hypervisor.create_l0 ctx ~name:"host" ~uplink ~addr:"192.168.1.100" in
  (ctx, trace, uplink, host, Migration.Registry.create ())

let install_exn ctx host registry =
  match Cloudskulk.Install.run ctx ~host ~registry ~target_name:"guest0" with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let story_tests =
  [
    Alcotest.test_case "full story: attack, spy, tamper, detect" `Slow (fun () ->
        let ctx, _, uplink, host, registry = mk_world () in
        ignore (Result.get_ok (Vmm.Hypervisor.launch host (target_config ())));
        (* attack *)
        let report = install_exn ctx host registry in
        let ritm = report.Cloudskulk.Install.ritm in
        (* spy: keystrokes over the forwarded SSH path *)
        let kl = Cloudskulk.Services.start_keylogger ritm ~ports:[ 22 ] in
        let user = Net.Fabric.Node.create ~addr:"203.0.113.5" in
        Net.Fabric.Node.attach user uplink;
        Net.Fabric.Switch.send uplink
          (Net.Packet.make ~id:1
             ~src:(Net.Packet.endpoint "203.0.113.5" 50000)
             ~dst:(Net.Packet.endpoint "192.168.1.100" 2222)
             "sudo rm -rf /tmp/x");
        ignore (Sim.Engine.run_for (Sim.Ctx.engine ctx) (Sim.Time.s 1.));
        Alcotest.(check (list string)) "keystrokes" [ "sudo rm -rf /tmp/x" ]
          (Cloudskulk.Services.keystrokes kl);
        (* tamper: drop victim mail *)
        let stats = Cloudskulk.Services.drop_traffic ritm ~port:25 in
        Cloudskulk.Services.victim_send ritm ~dst:(Net.Packet.endpoint "mail" 25) "msg";
        ignore (Sim.Engine.run_for (Sim.Ctx.engine ctx) (Sim.Time.s 1.));
        Alcotest.(check int) "dropped" 1 stats.Cloudskulk.Services.dropped;
        (* detect from L0 *)
        let victim = ritm.Cloudskulk.Ritm.victim and guestx = ritm.Cloudskulk.Ritm.guestx in
        let env =
          {
            Cloudskulk.Dedup_detector.ctx;
            host;
            deliver_to_guest =
              (fun image ->
                match Vmm.Vm.load_file victim image with
                | Error e -> Error e
                | Ok _ ->
                  Result.map (fun () -> ())
                    (Cloudskulk.Stealth.mirror_file ~guestx ~victim
                       ~name:(Memory.File_image.name image)));
            mutate_in_guest =
              (fun ~name ~salt ->
                match Vmm.Vm.file_offset victim name with
                | None -> Error "no file"
                | Some off ->
                  let ram = Vmm.Vm.ram victim in
                  for i = 0 to 99 do
                    let c = Memory.Address_space.read ram (off + i) in
                    ignore
                      (Memory.Address_space.write ram (off + i)
                         (Memory.Page.Content.mutate c ~salt))
                  done;
                  Ok ());
          }
        in
        match Cloudskulk.Dedup_detector.run env with
        | Ok o ->
          Alcotest.(check bool) "caught" true
            (o.Cloudskulk.Dedup_detector.verdict
            = Cloudskulk.Dedup_detector.Nested_vm_detected)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "co-resident VMs survive the attack untouched" `Quick (fun () ->
        let ctx, _, _, host, registry = mk_world () in
        ignore (Result.get_ok (Vmm.Hypervisor.launch host (target_config ())));
        let bystander =
          Result.get_ok
            (Vmm.Hypervisor.launch host (target_config ~name:"bystander" ~memory_mb:32 ()))
        in
        let c = Memory.Page.Content.of_int 31337 in
        ignore (Memory.Address_space.write (Vmm.Vm.ram bystander) 5 c);
        ignore (install_exn ctx host registry);
        Alcotest.(check bool) "still running" true (Vmm.Vm.state bystander = Vmm.Vm.Running);
        Alcotest.(check bool) "memory intact" true
          (Memory.Page.Content.equal c (Memory.Address_space.read (Vmm.Vm.ram bystander) 5)));
    Alcotest.test_case "trace records the attack's causal chain" `Quick (fun () ->
        let ctx, trace, _, host, registry = mk_world () in
        ignore (Result.get_ok (Vmm.Hypervisor.launch host (target_config ())));
        ignore (install_exn ctx host registry);
        let logged prefix =
          List.exists
            (fun (r : Sim.Trace.record) ->
              String.equal r.component "hv:host" && String.starts_with ~prefix r.message)
            (Sim.Trace.records trace)
        in
        Alcotest.(check bool) "guestx launched" true (logged "launched guestx");
        Alcotest.(check bool) "guest0 killed" true (logged "killed guest0"));
    Alcotest.test_case "admin's monitor view of GuestX mimics the old guest" `Quick (fun () ->
        let ctx, _, _, host, registry = mk_world () in
        let target = Result.get_ok (Vmm.Hypervisor.launch host (target_config ())) in
        let before = Vmm.Monitor.execute_exn target "info qtree" in
        let r = install_exn ctx host registry in
        let victim = r.Cloudskulk.Install.ritm.Cloudskulk.Ritm.victim in
        (* the victim VM (at L2) answers with the same device tree *)
        let after = Vmm.Monitor.execute_exn victim "info qtree" in
        Alcotest.(check string) "same qtree" before after);
  ]

let persistence_tests =
  [
    Alcotest.test_case "CloudSkulk survives a guest reboot (Section VII-A)" `Quick (fun () ->
        (* SubVirt needs a reboot to engage; BluePill dies on one;
           CloudSkulk survives it, because rebooting L2 cannot escape
           GuestX *)
        let ctx, _, _, host, registry = mk_world () in
        ignore (Result.get_ok (Vmm.Hypervisor.launch host (target_config ())));
        let r = install_exn ctx host registry in
        let ritm = r.Cloudskulk.Install.ritm in
        let victim = ritm.Cloudskulk.Ritm.victim in
        (match Vmm.Vm.reboot_guest victim with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        Alcotest.(check bool) "still at L2" true
          (Vmm.Level.is_nested (Vmm.Vm.level victim));
        Alcotest.(check bool) "rootkit intact" true (Cloudskulk.Ritm.is_intact ritm);
        (* and the attacker's taps still see fresh traffic *)
        let kl = Cloudskulk.Services.start_keylogger ritm ~ports:[ 22 ] in
        Cloudskulk.Services.victim_send ritm ~dst:(Net.Packet.endpoint "x" 22) "post-reboot";
        ignore (Sim.Engine.run_for (Sim.Ctx.engine ctx) (Sim.Time.s 1.));
        ignore kl);
    Alcotest.test_case "guest reboot wipes memory and processes" `Quick (fun () ->
        let _, _, _, host, _ = mk_world () in
        let vm = Result.get_ok (Vmm.Hypervisor.launch host (target_config ())) in
        let f = Memory.File_image.generate (Sim.Rng.create 1) ~name:"doc" ~pages:4 in
        ignore (Result.get_ok (Vmm.Vm.load_file vm f));
        ignore
          (Vmm.Process_table.spawn (Vmm.Vm.guest_processes vm) ~name:"vim"
             ~cmdline:"vim notes.txt");
        (match Vmm.Vm.reboot_guest vm with Ok () -> () | Error e -> Alcotest.fail e);
        Alcotest.(check (option int)) "file forgotten" None (Vmm.Vm.file_offset vm "doc");
        Alcotest.(check (list string)) "only boot processes" [ "kthreadd"; "sshd"; "systemd" ]
          (List.sort_uniq String.compare
             (List.map
                (fun (p : Vmm.Process_table.proc) -> p.Vmm.Process_table.name)
                (Vmm.Process_table.all (Vmm.Vm.guest_processes vm))));
        let all_zero = ref true in
        let ram = Vmm.Vm.ram vm in
        for i = 0 to Memory.Address_space.pages ram - 1 do
          if not (Memory.Page.Content.is_zero (Memory.Address_space.read ram i)) then
            all_zero := false
        done;
        Alcotest.(check bool) "memory wiped" true !all_zero);
    Alcotest.test_case "rebooting a paused guest is refused" `Quick (fun () ->
        let _, _, _, host, _ = mk_world () in
        let vm = Result.get_ok (Vmm.Hypervisor.launch host (target_config ())) in
        ignore (Vmm.Vm.pause vm);
        Alcotest.(check bool) "refused" true (Result.is_error (Vmm.Vm.reboot_guest vm)));
  ]

let deep_nesting_tests =
  [
    Alcotest.test_case "an L3 rootkit is possible but ever slower" `Quick (fun () ->
        (* nest once more: a RITM inside the RITM *)
        let ctx, _, _, host, _ = mk_world () in
        let l1_cfg =
          Vmm.Qemu_config.with_nested_vmx
            { (Vmm.Qemu_config.default ~name:"l1") with Vmm.Qemu_config.memory_mb = 256 }
            true
        in
        let l1 = Result.get_ok (Vmm.Hypervisor.launch host l1_cfg) in
        let hv1 = Result.get_ok (Vmm.Hypervisor.create_nested ctx ~vm:l1 ~name:"hv1") in
        let l2_cfg =
          Vmm.Qemu_config.with_nested_vmx
            { (Vmm.Qemu_config.default ~name:"l2") with Vmm.Qemu_config.memory_mb = 64 }
            true
        in
        let l2 = Result.get_ok (Vmm.Hypervisor.launch hv1 l2_cfg) in
        let hv2 = Result.get_ok (Vmm.Hypervisor.create_nested ctx ~vm:l2 ~name:"hv2") in
        let l3 =
          Result.get_ok
            (Vmm.Hypervisor.launch hv2
               { (Vmm.Qemu_config.default ~name:"l3") with Vmm.Qemu_config.memory_mb = 8 })
        in
        Alcotest.(check int) "L3" 3 (Vmm.Level.to_int (Vmm.Vm.level l3));
        (* pipe latency explodes quadratically with depth *)
        let pipe = List.assoc "pipe latency" Workload.Lmbench.processes in
        let at l = Vmm.Cost_model.cost_ns ~level:(Vmm.Level.of_int l) pipe in
        Alcotest.(check bool) "L3 >> L2" true (at 3 > 10. *. at 2);
        (* and L3 writes still surface in L1's root RAM *)
        let c = Memory.Page.Content.of_int 3333 in
        ignore (Memory.Address_space.write (Vmm.Vm.ram l3) 0 c);
        let root, _ = Memory.Address_space.resolve (Vmm.Vm.ram l3) 0 in
        Alcotest.(check bool) "rooted in l1 ram" true (root == Vmm.Vm.ram l1));
  ]

let failure_tests =
  [
    Alcotest.test_case "install against a paused target still works" `Quick (fun () ->
        (* migration accepts running or paused sources *)
        let ctx, _, _, host, registry = mk_world () in
        let target = Result.get_ok (Vmm.Hypervisor.launch host (target_config ())) in
        ignore (Vmm.Vm.pause target);
        match Cloudskulk.Install.run ctx ~host ~registry ~target_name:"guest0" with
        | Ok r ->
          Alcotest.(check bool) "victim running" true
            (Vmm.Vm.state r.Cloudskulk.Install.ritm.Cloudskulk.Ritm.victim = Vmm.Vm.Running)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "install against a stopped target fails without leftovers" `Quick
      (fun () ->
        let ctx, _, _, host, registry = mk_world () in
        let target = Result.get_ok (Vmm.Hypervisor.launch host (target_config ())) in
        Vmm.Vm.stop target;
        Alcotest.(check bool) "fails" true
          (Result.is_error
             (Cloudskulk.Install.run ctx ~host ~registry ~target_name:"guest0"));
        Alcotest.(check bool) "no guestx left behind" true
          (Vmm.Hypervisor.find_vm host "guestx" = None));
    Alcotest.test_case "double install of the same name fails cleanly" `Quick (fun () ->
        let ctx, _, _, host, registry = mk_world () in
        ignore (Result.get_ok (Vmm.Hypervisor.launch host (target_config ())));
        ignore (install_exn ctx host registry);
        (* the original guest0 is gone; a second install finds no target *)
        Alcotest.(check bool) "fails" true
          (Result.is_error
             (Cloudskulk.Install.run ctx ~host ~registry ~target_name:"guest0")));
    Alcotest.test_case "host RAM exhaustion surfaces as a launch error" `Quick (fun () ->
        let ctx = Sim.Ctx.create () in
        let uplink = Net.Fabric.Switch.create ctx ~name:"up" ~link:Net.Link.lan_1gbe in
        (* a 1 GB host cannot take two 1 GB guests *)
        let host =
          Vmm.Hypervisor.create_l0 ~ram_gb:1 ctx ~name:"small" ~uplink ~addr:"10.0.0.1"
        in
        ignore
          (Result.get_ok (Vmm.Hypervisor.launch host (Vmm.Qemu_config.default ~name:"a")));
        match Vmm.Hypervisor.launch host (Vmm.Qemu_config.default ~name:"b") with
        | Error e -> Alcotest.(check bool) "mentions memory" true (String.length e > 0)
        | Ok _ -> Alcotest.fail "should fail");
  ]

let () =
  Alcotest.run "integration"
    [
      ("story", story_tests);
      ("persistence", persistence_tests);
      ("deep_nesting", deep_nesting_tests);
      ("failure", failure_tests);
    ]
