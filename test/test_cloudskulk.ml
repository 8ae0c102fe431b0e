(* Tests for the CloudSkulk core: the CVE dataset (Table I), attacker
   reconnaissance, the four-step installation, stealth tricks, malicious
   services, and the two baseline detectors. *)

let contains_sub hay needle =
  let n = String.length hay and m = String.length needle in
  if m = 0 then true
  else begin
    let rec scan i = i + m <= n && (String.sub hay i m = needle || scan (i + 1)) in
    scan 0
  end

let cve_tests =
  let open Cloudskulk.Cve_data in
  [
    Alcotest.test_case "totals match the paper's Table I" `Quick (fun () ->
        Alcotest.(check int) "VMware" 29 (total Vmware);
        Alcotest.(check int) "VirtualBox" 15 (total Virtualbox);
        Alcotest.(check int) "Xen" 15 (total Xen);
        Alcotest.(check int) "Hyper-V" 14 (total Hyperv);
        Alcotest.(check int) "KVM/QEMU" 23 (total Kvm_qemu);
        Alcotest.(check int) "grand total" 96 grand_total);
    Alcotest.test_case "specific cells" `Quick (fun () ->
        Alcotest.(check int) "VirtualBox 2018" 11 (count Virtualbox ~year:2018);
        Alcotest.(check int) "Xen 2018" 0 (count Xen ~year:2018);
        Alcotest.(check bool) "VENOM is listed" true
          (List.mem "CVE-2015-3456" (cves Kvm_qemu ~year:2015)));
    Alcotest.test_case "no duplicate CVE ids" `Quick (fun () ->
        let all =
          List.concat_map
            (fun hv -> List.concat_map (fun year -> cves hv ~year) years)
            hypervisors
        in
        Alcotest.(check int) "unique" (List.length all)
          (List.length (List.sort_uniq String.compare all)));
    Alcotest.test_case "render_table carries the totals row" `Quick (fun () ->
        let t = render_table () in
        Alcotest.(check bool) "has totals" true (contains_sub t "29");
        Alcotest.(check bool) "has years" true (contains_sub t "2015"));
  ]

(* A compact world: 64 MB target so installs run fast. *)
let target_config ?(name = "guest0") () =
  let c = { (Vmm.Qemu_config.default ~name) with Vmm.Qemu_config.memory_mb = 64 } in
  Vmm.Qemu_config.with_hostfwd c [ (2222, 22) ]

let mk_world ?(seed = 42) () =
  let ctx = Sim.Ctx.create ~seed () in
  let uplink = Net.Fabric.Switch.create ctx ~name:"uplink" ~link:Net.Link.lan_1gbe in
  let host = Vmm.Hypervisor.create_l0 ctx ~name:"host" ~uplink ~addr:"192.168.1.100" in
  let registry = Migration.Registry.create () in
  (ctx, uplink, host, registry)

let launch_target host = Result.get_ok (Vmm.Hypervisor.launch host (target_config ()))

let install ?(config = None) ctx host registry =
  match Cloudskulk.Install.run ?config ctx ~host ~registry ~target_name:"guest0" with
  | Ok r -> r
  | Error e -> Alcotest.fail ("install failed: " ^ e)

let recon_tests =
  [
    Alcotest.test_case "list_targets finds the running guest" `Quick (fun () ->
        let _, _, host, _ = mk_world () in
        ignore (launch_target host);
        let targets = Cloudskulk.Recon.list_targets host in
        Alcotest.(check int) "one" 1 (List.length targets);
        let f = List.hd targets in
        Alcotest.(check string) "name" "guest0" f.Cloudskulk.Recon.config.Vmm.Qemu_config.vm_name;
        Alcotest.(check int) "memory recovered" 64
          f.Cloudskulk.Recon.config.Vmm.Qemu_config.memory_mb);
    Alcotest.test_case "find_target by name; absent name errors" `Quick (fun () ->
        let _, _, host, _ = mk_world () in
        ignore (launch_target host);
        Alcotest.(check bool) "found" true
          (Result.is_ok (Cloudskulk.Recon.find_target host ~name:"guest0"));
        Alcotest.(check bool) "absent" true
          (Result.is_error (Cloudskulk.Recon.find_target host ~name:"guest1")));
    Alcotest.test_case "monitor probe exposes devices and memory" `Quick (fun () ->
        let _, _, host, _ = mk_world () in
        let vm = launch_target host in
        let p = Cloudskulk.Recon.probe_monitor vm in
        Alcotest.(check bool) "qtree has nic" true
          (contains_sub p.Cloudskulk.Recon.qtree "virtio-net-pci");
        Alcotest.(check bool) "mtree has size" true
          (contains_sub p.Cloudskulk.Recon.mtree "size 64 MB"));
    Alcotest.test_case "verify_config cross-checks ps against monitor" `Quick (fun () ->
        let _, _, host, _ = mk_world () in
        ignore (launch_target host);
        let f = Result.get_ok (Cloudskulk.Recon.find_target host ~name:"guest0") in
        Alcotest.(check bool) "consistent" true (Result.is_ok (Cloudskulk.Recon.verify_config f)));
    Alcotest.test_case "qemu-img recovers the target's disk size" `Quick (fun () ->
        let _, _, host, _ = mk_world () in
        ignore (launch_target host);
        let f = Result.get_ok (Cloudskulk.Recon.find_target host ~name:"guest0") in
        (match Cloudskulk.Recon.probe_disk host f with
        | Ok gb -> Alcotest.(check (float 0.01)) "20G" 20. gb
        | Error e -> Alcotest.fail e));
    Alcotest.test_case "recon ignores dead VMs" `Quick (fun () ->
        let _, _, host, _ = mk_world () in
        let vm = launch_target host in
        Vmm.Hypervisor.kill_vm host vm;
        Alcotest.(check int) "none" 0 (List.length (Cloudskulk.Recon.list_targets host)));
  ]

let install_tests =
  [
    Alcotest.test_case "four steps complete in order" `Quick (fun () ->
        let ctx, _, host, registry = mk_world () in
        ignore (launch_target host);
        let r = install ctx host registry in
        let names =
          List.map (fun s -> Cloudskulk.Install.step_name s.Cloudskulk.Install.step)
            r.Cloudskulk.Install.steps
        in
        Alcotest.(check (list string)) "order"
          [ "recon"; "launch-ritm"; "nested-destination"; "live-migration"; "cleanup" ]
          names);
    Alcotest.test_case "victim ends up at L2 inside GuestX" `Quick (fun () ->
        let ctx, _, host, registry = mk_world () in
        ignore (launch_target host);
        let r = install ctx host registry in
        let ritm = r.Cloudskulk.Install.ritm in
        Alcotest.(check int) "L2" 2 (Vmm.Level.to_int (Vmm.Vm.level ritm.Cloudskulk.Ritm.victim));
        Alcotest.(check bool) "victim running" true
          (Vmm.Vm.state ritm.Cloudskulk.Ritm.victim = Vmm.Vm.Running);
        Alcotest.(check bool) "intact" true (Cloudskulk.Ritm.is_intact ritm);
        (* victim RAM is a window into GuestX's RAM *)
        let root, _ = Memory.Address_space.resolve (Vmm.Vm.ram ritm.Cloudskulk.Ritm.victim) 0 in
        Alcotest.(check bool) "backed by guestx" true
          (root == Vmm.Vm.ram ritm.Cloudskulk.Ritm.guestx));
    Alcotest.test_case "husk is killed and PID spoofed" `Quick (fun () ->
        let ctx, _, host, registry = mk_world () in
        let target = launch_target host in
        let old_pid = Vmm.Vm.qemu_pid target in
        let r = install ctx host registry in
        Alcotest.(check bool) "target dead" false (Vmm.Vm.is_alive target);
        Alcotest.(check int) "old pid" old_pid r.Cloudskulk.Install.old_pid;
        Alcotest.(check int) "guestx wears it" old_pid r.Cloudskulk.Install.new_pid;
        let table = Vmm.Hypervisor.processes host in
        (match Vmm.Process_table.find table old_pid with
        | Some p ->
          Alcotest.(check bool) "qemu process under old pid" true
            (contains_sub p.Vmm.Process_table.cmdline "guestx")
        | None -> Alcotest.fail "pid vanished"));
    Alcotest.test_case "victim's SSH path still works after install" `Quick (fun () ->
        let ctx, uplink, host, registry = mk_world () in
        ignore (launch_target host);
        let r = install ctx host registry in
        let victim = r.Cloudskulk.Install.ritm.Cloudskulk.Ritm.victim in
        let got = ref None in
        (match Vmm.Vm.node victim with
        | Some node -> Net.Fabric.Node.listen node 22 (fun p -> got := Some p.Net.Packet.payload)
        | None -> Alcotest.fail "victim has no node");
        let user = Net.Fabric.Node.create ~addr:"203.0.113.5" in
        Net.Fabric.Node.attach user uplink;
        Net.Fabric.Switch.send uplink
          (Net.Packet.make ~id:1
             ~src:(Net.Packet.endpoint "203.0.113.5" 50000)
             ~dst:(Net.Packet.endpoint "192.168.1.100" 2222)
             "ssh after rootkit");
        ignore (Sim.Engine.run_for (Sim.Ctx.engine ctx) (Sim.Time.s 1.));
        Alcotest.(check (option string)) "delivered to nested victim" (Some "ssh after rootkit")
          !got);
    Alcotest.test_case "impersonation copies the OS identity" `Quick (fun () ->
        let ctx, _, host, registry = mk_world () in
        let target = launch_target host in
        Vmm.Vm.set_os_release target "Fedora 22, Linux 4.4.14-200.fc22.x86_64";
        let r = install ctx host registry in
        let ritm = r.Cloudskulk.Install.ritm in
        Alcotest.(check string) "same os string"
          (Vmm.Vm.os_release ritm.Cloudskulk.Ritm.victim)
          (Vmm.Vm.os_release ritm.Cloudskulk.Ritm.guestx));
    Alcotest.test_case "installation time is dominated by migration" `Quick (fun () ->
        let ctx, _, host, registry = mk_world () in
        ignore (launch_target host);
        let r = install ctx host registry in
        let mig_step =
          List.find
            (fun s -> s.Cloudskulk.Install.step = Cloudskulk.Install.Live_migration)
            r.Cloudskulk.Install.steps
        in
        let duration (s : Cloudskulk.Install.step_report) =
          Sim.Time.to_s (Sim.Time.diff s.Cloudskulk.Install.finished s.Cloudskulk.Install.started)
        in
        let mig_time = duration mig_step in
        let total = Sim.Time.to_s r.Cloudskulk.Install.total_time in
        (* "dominated by the time cost of the live migration": the
           longest step by far, and the majority of the total even on
           this deliberately tiny 64 MB guest *)
        List.iter
          (fun s ->
            if s.Cloudskulk.Install.step <> Cloudskulk.Install.Live_migration then
              Alcotest.(check bool) "migration is the longest step" true
                (mig_time > duration s))
          r.Cloudskulk.Install.steps;
        Alcotest.(check bool) "migration is most of the total" true (mig_time > 0.5 *. total));
    Alcotest.test_case "missing target fails cleanly" `Quick (fun () ->
        let ctx, _, host, registry = mk_world () in
        Alcotest.(check bool) "error" true
          (Result.is_error
             (Cloudskulk.Install.run ctx ~host ~registry ~target_name:"guest0")));
    Alcotest.test_case "post-copy strategy also installs" `Quick (fun () ->
        let ctx, _, host, registry = mk_world () in
        ignore (launch_target host);
        let config =
          {
            Cloudskulk.Install.default_config with
            Cloudskulk.Install.strategy =
              Migration.Wiring.Post_copy Migration.Postcopy.default_config;
          }
        in
        let r = install ~config:(Some config) ctx host registry in
        Alcotest.(check bool) "postcopy result" true (r.Cloudskulk.Install.postcopy <> None);
        Alcotest.(check bool) "intact" true
          (Cloudskulk.Ritm.is_intact r.Cloudskulk.Install.ritm));
  ]

let stealth_tests =
  [
    Alcotest.test_case "mirror_file copies contents byte-for-byte" `Quick (fun () ->
        let ctx, _, host, registry = mk_world () in
        ignore (launch_target host);
        let r = install ctx host registry in
        let ritm = r.Cloudskulk.Install.ritm in
        let victim = ritm.Cloudskulk.Ritm.victim and guestx = ritm.Cloudskulk.Ritm.guestx in
        let f = Memory.File_image.generate (Sim.Rng.create 3) ~name:"secrets" ~pages:8 in
        ignore (Result.get_ok (Vmm.Vm.load_file victim f));
        (match Cloudskulk.Stealth.mirror_file ~guestx ~victim ~name:"secrets" with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        match Vmm.Vm.file_offset guestx "secrets" with
        | None -> Alcotest.fail "no mirror"
        | Some off ->
          Alcotest.(check bool) "identical" true
            (Memory.File_image.matches f (Vmm.Vm.ram guestx) ~offset:off));
    Alcotest.test_case "sync_victim_page propagates a change" `Quick (fun () ->
        let ctx, _, host, registry = mk_world () in
        ignore (launch_target host);
        let r = install ctx host registry in
        let ritm = r.Cloudskulk.Install.ritm in
        let victim = ritm.Cloudskulk.Ritm.victim and guestx = ritm.Cloudskulk.Ritm.guestx in
        let f = Memory.File_image.generate (Sim.Rng.create 3) ~name:"doc" ~pages:4 in
        ignore (Result.get_ok (Vmm.Vm.load_file victim f));
        ignore (Result.get_ok (Cloudskulk.Stealth.mirror_file ~guestx ~victim ~name:"doc"));
        (* victim changes page 2 *)
        let voff = Option.get (Vmm.Vm.file_offset victim "doc") in
        let new_c = Memory.Page.Content.of_int 777 in
        ignore (Memory.Address_space.write (Vmm.Vm.ram victim) (voff + 2) new_c);
        ignore (Result.get_ok (Cloudskulk.Stealth.sync_victim_page ~guestx ~victim ~name:"doc" ~page:2));
        let goff = Option.get (Vmm.Vm.file_offset guestx "doc") in
        Alcotest.(check bool) "synced" true
          (Memory.Page.Content.equal new_c
             (Memory.Address_space.read (Vmm.Vm.ram guestx) (goff + 2))));
    Alcotest.test_case "spoof_pid requires the old pid to be free" `Quick (fun () ->
        let ctx, _, host, registry = mk_world () in
        ignore (launch_target host);
        let r = install ctx host registry in
        let guestx = r.Cloudskulk.Install.ritm.Cloudskulk.Ritm.guestx in
        (* try to steal a pid that is still in use *)
        let table = Vmm.Hypervisor.processes host in
        let live =
          List.find
            (fun (p : Vmm.Process_table.proc) -> p.Vmm.Process_table.pid <> Vmm.Vm.qemu_pid guestx)
            (Vmm.Process_table.all table)
        in
        Alcotest.(check bool) "refused" true
          (Result.is_error
             (Cloudskulk.Stealth.spoof_pid ~host ~guestx ~old_pid:live.Vmm.Process_table.pid)));
  ]

let services_tests =
  let setup () =
    let ctx, _, host, registry = mk_world () in
    ignore (launch_target host);
    let r = install ctx host registry in
    (ctx, r.Cloudskulk.Install.ritm)
  in
  [
    Alcotest.test_case "sniffer captures victim traffic" `Quick (fun () ->
        let ctx, ritm = setup () in
        let sniffer = Cloudskulk.Services.start_packet_capture ritm in
        Cloudskulk.Services.victim_send ritm
          ~dst:(Net.Packet.endpoint "203.0.113.9" 80)
          "GET /index.html";
        ignore (Sim.Engine.run_for (Sim.Ctx.engine ctx) (Sim.Time.s 1.));
        let caps = Cloudskulk.Services.captures sniffer in
        Alcotest.(check int) "one" 1 (List.length caps);
        Alcotest.(check string) "payload" "GET /index.html"
          (List.hd caps).Cloudskulk.Services.observed_payload);
    Alcotest.test_case "keylogger records only configured ports" `Quick (fun () ->
        let ctx, ritm = setup () in
        let kl = Cloudskulk.Services.start_keylogger ritm ~ports:[ 22 ] in
        Cloudskulk.Services.victim_send ritm ~dst:(Net.Packet.endpoint "x" 22) "ls -la";
        Cloudskulk.Services.victim_send ritm ~dst:(Net.Packet.endpoint "x" 80) "GET /";
        ignore (Sim.Engine.run_for (Sim.Ctx.engine ctx) (Sim.Time.s 1.));
        Alcotest.(check (list string)) "only ssh" [ "ls -la" ]
          (Cloudskulk.Services.keystrokes kl));
    Alcotest.test_case "encryption hides payloads from the sniffer" `Quick (fun () ->
        let ctx, ritm = setup () in
        let sniffer = Cloudskulk.Services.start_packet_capture ritm in
        Cloudskulk.Services.victim_send ritm ~encrypted:true
          ~dst:(Net.Packet.endpoint "bank" 443)
          "password=hunter2";
        ignore (Sim.Engine.run_for (Sim.Ctx.engine ctx) (Sim.Time.s 1.));
        Alcotest.(check string) "ciphertext only" "<ciphertext>"
          (List.hd (Cloudskulk.Services.captures sniffer)).Cloudskulk.Services.observed_payload);
    Alcotest.test_case "write trap sees plaintext before encryption" `Quick (fun () ->
        let ctx, ritm = setup () in
        let trap = Cloudskulk.Services.trap_guest_writes ritm in
        Cloudskulk.Services.victim_send ritm ~encrypted:true
          ~dst:(Net.Packet.endpoint "bank" 443)
          "password=hunter2";
        ignore (Sim.Engine.run_for (Sim.Ctx.engine ctx) (Sim.Time.s 1.));
        Alcotest.(check (list string)) "plaintext" [ "password=hunter2" ]
          (Cloudskulk.Services.trapped_writes trap);
        Cloudskulk.Services.untrap_guest_writes ritm trap);
    Alcotest.test_case "drop_traffic suppresses a port" `Quick (fun () ->
        let ctx, ritm = setup () in
        let stats = Cloudskulk.Services.drop_traffic ritm ~port:25 in
        let delivered = ref 0 in
        let uplink = Vmm.Hypervisor.uplink ritm.Cloudskulk.Ritm.host in
        let sink = Net.Fabric.Node.create ~addr:"203.0.113.25" in
        Net.Fabric.Node.attach sink uplink;
        Net.Fabric.Node.listen sink 25 (fun _ -> incr delivered);
        Net.Fabric.Node.listen sink 80 (fun _ -> incr delivered);
        Cloudskulk.Services.victim_send ritm ~dst:(Net.Packet.endpoint "203.0.113.25" 25) "MAIL";
        Cloudskulk.Services.victim_send ritm ~dst:(Net.Packet.endpoint "203.0.113.25" 80) "WEB";
        ignore (Sim.Engine.run_for (Sim.Ctx.engine ctx) (Sim.Time.s 1.));
        Alcotest.(check int) "only web arrived" 1 !delivered;
        Alcotest.(check int) "one dropped" 1 stats.Cloudskulk.Services.dropped);
    Alcotest.test_case "rewrite_traffic alters plaintext in flight" `Quick (fun () ->
        let ctx, ritm = setup () in
        let stats =
          Cloudskulk.Services.rewrite_traffic ritm ~port:80 ~pattern:"BUY"
            ~replacement:"SELL"
        in
        let got = ref None in
        let uplink = Vmm.Hypervisor.uplink ritm.Cloudskulk.Ritm.host in
        let sink = Net.Fabric.Node.create ~addr:"203.0.113.80" in
        Net.Fabric.Node.attach sink uplink;
        Net.Fabric.Node.listen sink 80 (fun p -> got := Some p.Net.Packet.payload);
        Cloudskulk.Services.victim_send ritm
          ~dst:(Net.Packet.endpoint "203.0.113.80" 80)
          "order: BUY 100";
        ignore (Sim.Engine.run_for (Sim.Ctx.engine ctx) (Sim.Time.s 1.));
        Alcotest.(check (option string)) "tampered" (Some "order: SELL 100") !got;
        Alcotest.(check int) "counted" 1 stats.Cloudskulk.Services.rewritten);
    Alcotest.test_case "parallel malicious OS runs beside the victim" `Quick (fun () ->
        let _, ritm = setup () in
        match Cloudskulk.Services.launch_parallel_os ritm ~name:"spambot" ~memory_mb:8 with
        | Error e -> Alcotest.fail e
        | Ok vm ->
          Alcotest.(check int) "at L2" 2 (Vmm.Level.to_int (Vmm.Vm.level vm));
          Alcotest.(check bool) "running" true (Vmm.Vm.state vm = Vmm.Vm.Running);
          Alcotest.(check bool) "victim unaffected" true
            (Vmm.Vm.state ritm.Cloudskulk.Ritm.victim = Vmm.Vm.Running));
  ]

let baseline_tests =
  [
    Alcotest.test_case "VMCS scan finds a default (VT-x) install" `Quick (fun () ->
        let ctx, _, host, registry = mk_world () in
        ignore (launch_target host);
        ignore (install ctx host registry);
        let r = Cloudskulk.Vmcs_scan.scan_host host in
        Alcotest.(check bool) "detected" true r.Cloudskulk.Vmcs_scan.verdict);
    Alcotest.test_case "VMCS scan misses a software-emulated install" `Quick (fun () ->
        let ctx, _, host, registry = mk_world () in
        ignore (launch_target host);
        let config =
          { Cloudskulk.Install.default_config with
            Cloudskulk.Install.use_vtx = false }
        in
        ignore (install ~config:(Some config) ctx host registry);
        let r = Cloudskulk.Vmcs_scan.scan_host host in
        Alcotest.(check bool) "missed (the paper's evasion)" false
          r.Cloudskulk.Vmcs_scan.verdict);
    Alcotest.test_case "clean host has no VMCS hits" `Quick (fun () ->
        let _, _, host, _ = mk_world () in
        ignore (launch_target host);
        Alcotest.(check bool) "clean" false (Cloudskulk.Vmcs_scan.scan_host host).verdict);
    Alcotest.test_case "VMI fingerprint is evaded by impersonation" `Quick (fun () ->
        let ctx, _, host, registry = mk_world () in
        let target = launch_target host in
        let expected = Cloudskulk.Vmi_fingerprint.take target in
        let r = install ctx host registry in
        let guestx = r.Cloudskulk.Install.ritm.Cloudskulk.Ritm.guestx in
        (* the admin fingerprints what they think is guest0 - really GuestX *)
        let result = Cloudskulk.Vmi_fingerprint.check ~expected guestx in
        (match result with
        | Ok () -> ()
        | Error ms ->
          (* the only thing impersonation cannot hide in this model is
             memory size; the paper's attacker matches it by renting the
             right GuestX - accept either a pass or a memory-only diff *)
          List.iter
            (fun m ->
              Alcotest.(check string) "only memory can differ" "memory_mb"
                m.Cloudskulk.Vmi_fingerprint.field)
            ms));
    Alcotest.test_case "VMI fingerprint catches a lazy attacker" `Quick (fun () ->
        let ctx, _, host, registry = mk_world () in
        let target = launch_target host in
        Vmm.Vm.set_os_release target "CustomerOS 7";
        let expected = Cloudskulk.Vmi_fingerprint.take target in
        let config =
          { Cloudskulk.Install.default_config with
            Cloudskulk.Install.impersonate = false }
        in
        let r = install ~config:(Some config) ctx host registry in
        let guestx = r.Cloudskulk.Install.ritm.Cloudskulk.Ritm.guestx in
        match Cloudskulk.Vmi_fingerprint.check ~expected guestx with
        | Ok () -> Alcotest.fail "should have caught the unimpersonated RITM"
        | Error ms ->
          Alcotest.(check bool) "os_release flagged" true
            (List.exists (fun m -> m.Cloudskulk.Vmi_fingerprint.field = "os_release") ms));
  ]

let () =
  Alcotest.run "cloudskulk"
    [
      ("cve_data", cve_tests);
      ("recon", recon_tests);
      ("install", install_tests);
      ("stealth", stealth_tests);
      ("services", services_tests);
      ("baselines", baseline_tests);
    ]
