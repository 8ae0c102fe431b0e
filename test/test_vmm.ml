(* Tests for the hypervisor substrate: levels, the calibrated cost
   model, process tables, QEMU configs, VM lifecycle, hypervisors
   (including nesting), the monitor command language, and the standard
   topologies. *)

let contains_sub hay needle =
  let n = String.length hay and m = String.length needle in
  if m = 0 then true
  else begin
    let rec scan i = i + m <= n && (String.sub hay i m = needle || scan (i + 1)) in
    scan 0
  end

let level_tests =
  let open Vmm.Level in
  [
    Alcotest.test_case "notation" `Quick (fun () ->
        Alcotest.(check string) "L0" "L0" (to_string l0);
        Alcotest.(check string) "L2" "L2" (to_string l2);
        Alcotest.(check int) "deeper" 3 (to_int (deeper l2)));
    Alcotest.test_case "predicates" `Quick (fun () ->
        Alcotest.(check bool) "L1 not nested" false (is_nested l1);
        Alcotest.(check bool) "L2 nested" true (is_nested l2));
    Alcotest.test_case "negative depth rejected" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (of_int (-1));
             false
           with Invalid_argument _ -> true));
  ]

(* Paper anchors for the cost model (Tables II and III). *)
let us = Sim.Time.us

let cost_at level op = Vmm.Cost_model.cost_ns ~level op /. 1000.

let within pct expected actual =
  Float.abs (actual -. expected) <= Float.abs expected *. (pct /. 100.)

let check_anchor name op (l0, l1, l2) =
  Alcotest.test_case name `Quick (fun () ->
      let c0 = cost_at Vmm.Level.l0 op in
      let c1 = cost_at Vmm.Level.l1 op in
      let c2 = cost_at Vmm.Level.l2 op in
      Alcotest.(check bool)
        (Printf.sprintf "L0 %.3f ~ %.3f" c0 l0)
        true (within 2. l0 c0);
      Alcotest.(check bool)
        (Printf.sprintf "L1 %.3f ~ %.3f" c1 l1)
        true (within 3. l1 c1);
      Alcotest.(check bool)
        (Printf.sprintf "L2 %.3f ~ %.3f" c2 l2)
        true (within 5. l2 c2))

let find_op name table =
  match List.assoc_opt name table with
  | Some op -> op
  | None -> Alcotest.failf "missing lmbench op %s" name

let cost_model_tests =
  [
    Alcotest.test_case "pure cpu unchanged at L0/L1, derated at L2" `Quick (fun () ->
        let op = Vmm.Cost_model.op ~name:"alu" ~cpu:(us 1.) () in
        Alcotest.(check (float 0.01)) "L0" 1000. (Vmm.Cost_model.cost_ns ~level:Vmm.Level.l0 op);
        Alcotest.(check (float 0.01)) "L1" 1000. (Vmm.Cost_model.cost_ns ~level:Vmm.Level.l1 op);
        Alcotest.(check (float 0.5)) "L2 +3%" 1030.
          (Vmm.Cost_model.cost_ns ~level:Vmm.Level.l2 op));
    Alcotest.test_case "sw exits multiply with nesting" `Quick (fun () ->
        let op = Vmm.Cost_model.op ~name:"x" ~cpu:Sim.Time.zero ~sw_exits:1. () in
        let c1 = Vmm.Cost_model.cost_ns ~level:Vmm.Level.l1 op in
        let c2 = Vmm.Cost_model.cost_ns ~level:Vmm.Level.l2 op in
        let c3 = Vmm.Cost_model.cost_ns ~level:(Vmm.Level.of_int 3) op in
        Alcotest.(check (float 1.)) "L1 one exit" 1630. c1;
        Alcotest.(check (float 1.)) "L2 = 19x" (1630. *. 19.) c2;
        Alcotest.(check (float 10.)) "L3 = 361x" (1630. *. 361.) c3);
    Alcotest.test_case "hw faults only bite at L2+" `Quick (fun () ->
        let op = Vmm.Cost_model.op ~name:"x" ~cpu:Sim.Time.zero ~hw_faults_l2:10. () in
        Alcotest.(check (float 0.)) "free at L1" 0.
          (Vmm.Cost_model.cost_ns ~level:Vmm.Level.l1 op);
        Alcotest.(check (float 1.)) "13 us at L2" 13000.
          (Vmm.Cost_model.cost_ns ~level:Vmm.Level.l2 op));
    Alcotest.test_case "calibrate_hw_faults reproduces its anchors" `Quick (fun () ->
        let op =
          Vmm.Cost_model.calibrate_hw_faults ~name:"x" ~l0:(us 10.) ~l1:(us 11.) ~l2:(us 50.) ()
        in
        Alcotest.(check bool) "L0" true (within 1. 10. (cost_at Vmm.Level.l0 op));
        Alcotest.(check bool) "L1" true (within 1. 11. (cost_at Vmm.Level.l1 op));
        Alcotest.(check bool) "L2" true (within 2. 50. (cost_at Vmm.Level.l2 op)));
    Alcotest.test_case "cost_n scales sub-ns ops without truncation" `Quick (fun () ->
        let op = Vmm.Cost_model.pure_cpu_ns ~name:"add" ~ns:0.13 in
        (* 0.13 ns per op; a million of them should be ~130 us *)
        let total = Vmm.Cost_model.cost_n ~level:Vmm.Level.l0 op 1_000_000 in
        Alcotest.(check bool) "about 130 us" true
          (Float.abs (Sim.Time.to_us total -. 130.) < 1.));
    (* Table III anchors. *)
    check_anchor "pipe latency anchors"
      (find_op "pipe latency" Workload.Lmbench.processes)
      (3.49, 6.75, 65.49);
    check_anchor "AF_UNIX anchors"
      (find_op "AF_UNIX sock stream latency" Workload.Lmbench.processes)
      (3.58, 5.37, 43.98);
    check_anchor "fork+exit anchors"
      (find_op "fork+exit" Workload.Lmbench.processes)
      (74.6, 73.65, 242.19);
    check_anchor "fork+execve anchors"
      (find_op "fork+execve" Workload.Lmbench.processes)
      (245.8, 275.05, 588.5);
    check_anchor "fork+sh anchors"
      (find_op "fork+/bin/sh -c" Workload.Lmbench.processes)
      (918.7, 966.67, 1826.0);
    check_anchor "signal install anchors"
      (find_op "signal handler installation" Workload.Lmbench.processes)
      (0.075, 0.096, 0.10);
    check_anchor "protection fault anchors"
      (find_op "protection fault" Workload.Lmbench.processes)
      (0.27, 0.29, 0.32);
  ]

let process_table_tests =
  [
    Alcotest.test_case "spawn assigns increasing pids" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let t = Vmm.Process_table.create e in
        let a = Vmm.Process_table.spawn t ~name:"a" ~cmdline:"a" in
        let b = Vmm.Process_table.spawn t ~name:"b" ~cmdline:"b" in
        Alcotest.(check bool) "increasing" true (b.pid > a.pid));
    Alcotest.test_case "kill removes" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let t = Vmm.Process_table.create e in
        let p = Vmm.Process_table.spawn t ~name:"x" ~cmdline:"x" in
        Alcotest.(check bool) "killed" true (Vmm.Process_table.kill t p.pid);
        Alcotest.(check bool) "gone" false (Vmm.Process_table.exists t p.pid);
        Alcotest.(check bool) "double kill false" false (Vmm.Process_table.kill t p.pid));
    Alcotest.test_case "reassign_pid moves process" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let t = Vmm.Process_table.create e in
        let p = Vmm.Process_table.spawn t ~name:"qemu" ~cmdline:"qemu ..." in
        (match Vmm.Process_table.reassign_pid t ~old_pid:p.pid ~new_pid:9999 with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        Alcotest.(check bool) "new pid live" true (Vmm.Process_table.exists t 9999);
        Alcotest.(check bool) "old gone" false (Vmm.Process_table.exists t p.pid));
    Alcotest.test_case "reassign to taken pid fails" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let t = Vmm.Process_table.create e in
        let a = Vmm.Process_table.spawn t ~name:"a" ~cmdline:"a" in
        let b = Vmm.Process_table.spawn t ~name:"b" ~cmdline:"b" in
        Alcotest.(check bool) "error" true
          (Result.is_error (Vmm.Process_table.reassign_pid t ~old_pid:a.pid ~new_pid:b.pid)));
    Alcotest.test_case "grep_cmdline finds qemu" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let t = Vmm.Process_table.create e in
        ignore (Vmm.Process_table.spawn t ~name:"qemu" ~cmdline:"qemu-system-x86_64 -m 1024");
        ignore (Vmm.Process_table.spawn t ~name:"bash" ~cmdline:"/bin/bash");
        Alcotest.(check int) "one hit" 1
          (List.length (Vmm.Process_table.grep_cmdline t ~substring:"qemu-system")));
    Alcotest.test_case "ps_ef renders every process" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let t = Vmm.Process_table.create e in
        ignore (Vmm.Process_table.spawn t ~name:"a" ~cmdline:"cmd-a");
        let out = Vmm.Process_table.ps_ef t in
        Alcotest.(check bool) "contains" true (contains_sub out "cmd-a"));
  ]

let qemu_config_tests =
  [
    Alcotest.test_case "cmdline round-trips" `Quick (fun () ->
        let cfg =
          Vmm.Qemu_config.default ~name:"guest0"
          |> (fun c -> Vmm.Qemu_config.with_hostfwd c [ (2222, 22); (8080, 80) ])
          |> (fun c -> Vmm.Qemu_config.with_nested_vmx c true)
          |> fun c -> Vmm.Qemu_config.with_incoming c ~port:5601
        in
        let line = Vmm.Qemu_config.to_cmdline cfg in
        match Vmm.Qemu_config.of_cmdline line with
        | Error e -> Alcotest.fail e
        | Ok parsed ->
          Alcotest.(check string) "name" "guest0" parsed.Vmm.Qemu_config.vm_name;
          Alcotest.(check int) "memory" 1024 parsed.Vmm.Qemu_config.memory_mb;
          Alcotest.(check bool) "vmx" true parsed.Vmm.Qemu_config.nested_vmx;
          Alcotest.(check (list (pair int int)))
            "hostfwd" [ (2222, 22); (8080, 80) ]
            parsed.Vmm.Qemu_config.netdev.Vmm.Qemu_config.hostfwd;
          Alcotest.(check (option int)) "incoming" (Some 5601) parsed.Vmm.Qemu_config.incoming);
    Alcotest.test_case "non-qemu command rejected" `Quick (fun () ->
        Alcotest.(check bool) "error" true
          (Result.is_error (Vmm.Qemu_config.of_cmdline "/usr/sbin/sshd -D")));
    Alcotest.test_case "migration compatibility checks devices" `Quick (fun () ->
        let a = Vmm.Qemu_config.default ~name:"a" in
        let b = Vmm.Qemu_config.default ~name:"b" in
        Alcotest.(check bool) "same devices ok" true
          (Result.is_ok (Vmm.Qemu_config.migration_compatible ~source:a ~dest:b));
        let c = { b with Vmm.Qemu_config.memory_mb = 2048 } in
        Alcotest.(check bool) "memory mismatch fails" true
          (Result.is_error (Vmm.Qemu_config.migration_compatible ~source:a ~dest:c)));
    Alcotest.test_case "memory_pages" `Quick (fun () ->
        let c = Vmm.Qemu_config.default ~name:"x" in
        Alcotest.(check int) "1GB = 262144 pages" 262144 (Vmm.Qemu_config.memory_pages c));
  ]

let mk_host () =
  let ctx = Sim.Ctx.create () in
  let uplink = Net.Fabric.Switch.create ctx ~name:"up" ~link:Net.Link.lan_1gbe in
  let host =
    Vmm.Hypervisor.create_l0 ~ksm_config:Memory.Ksm.fast_config ctx ~name:"host" ~uplink
      ~addr:"192.168.1.100"
  in
  (ctx, host)

let small_vm ?(name = "vm") ?(memory_mb = 8) ?(vmx = false) () =
  let c = { (Vmm.Qemu_config.default ~name) with Vmm.Qemu_config.memory_mb } in
  Vmm.Qemu_config.with_nested_vmx c vmx

let launch_exn host cfg =
  match Vmm.Hypervisor.launch host cfg with Ok vm -> vm | Error e -> Alcotest.fail e

let vm_tests =
  [
    Alcotest.test_case "launch leaves VM running with a qemu process" `Quick (fun () ->
        let _, host = mk_host () in
        let vm = launch_exn host (small_vm ()) in
        Alcotest.(check bool) "running" true (Vmm.Vm.state vm = Vmm.Vm.Running);
        Alcotest.(check bool) "qemu process exists" true
          (Vmm.Process_table.exists (Vmm.Hypervisor.processes host) (Vmm.Vm.qemu_pid vm));
        Alcotest.(check int) "L1" 1 (Vmm.Level.to_int (Vmm.Vm.level vm)));
    Alcotest.test_case "incoming config waits" `Quick (fun () ->
        let _, host = mk_host () in
        let vm = launch_exn host (Vmm.Qemu_config.with_incoming (small_vm ()) ~port:5601) in
        Alcotest.(check bool) "incoming" true (Vmm.Vm.state vm = Vmm.Vm.Incoming));
    Alcotest.test_case "duplicate name rejected" `Quick (fun () ->
        let _, host = mk_host () in
        ignore (launch_exn host (small_vm ()));
        Alcotest.(check bool) "error" true
          (Result.is_error (Vmm.Hypervisor.launch host (small_vm ()))));
    Alcotest.test_case "lifecycle transitions" `Quick (fun () ->
        let _, host = mk_host () in
        let vm = launch_exn host (small_vm ()) in
        Alcotest.(check bool) "pause" true (Result.is_ok (Vmm.Vm.pause vm));
        Alcotest.(check bool) "resume" true (Result.is_ok (Vmm.Vm.resume vm));
        Alcotest.(check bool) "cannot resume running" true (Result.is_error (Vmm.Vm.resume vm));
        Vmm.Vm.stop vm;
        Alcotest.(check bool) "dead" false (Vmm.Vm.is_alive vm));
    Alcotest.test_case "kill_vm releases resources" `Quick (fun () ->
        let _, host = mk_host () in
        let vm = launch_exn host (small_vm ()) in
        let pid = Vmm.Vm.qemu_pid vm in
        Vmm.Hypervisor.kill_vm host vm;
        Alcotest.(check bool) "stopped" false (Vmm.Vm.is_alive vm);
        Alcotest.(check bool) "process gone" false
          (Vmm.Process_table.exists (Vmm.Hypervisor.processes host) pid);
        Alcotest.(check (option reject)) "not listed" None
          (Option.map ignore (Vmm.Hypervisor.find_vm host "vm")));
    Alcotest.test_case "load_file and file_offset" `Quick (fun () ->
        let _, host = mk_host () in
        let vm = launch_exn host (small_vm ~memory_mb:8 ()) in
        let f = Memory.File_image.generate (Sim.Rng.create 1) ~name:"f" ~pages:10 in
        (match Vmm.Vm.load_file vm f with
        | Ok off ->
          Alcotest.(check (option int)) "offset recorded" (Some off) (Vmm.Vm.file_offset vm "f");
          Alcotest.(check bool) "contents match" true
            (Memory.File_image.matches f (Vmm.Vm.ram vm) ~offset:off)
        | Error e -> Alcotest.fail e);
        Alcotest.(check bool) "duplicate rejected" true (Result.is_error (Vmm.Vm.load_file vm f)));
    Alcotest.test_case "write syscall taps" `Quick (fun () ->
        let _, host = mk_host () in
        let vm = launch_exn host (small_vm ()) in
        let seen = ref [] in
        Vmm.Vm.trap_write_syscalls vm ~name:"t" (fun d -> seen := d :: !seen);
        Vmm.Vm.emit_write vm "hello";
        Vmm.Vm.untrap_write_syscalls vm ~name:"t";
        Vmm.Vm.emit_write vm "unseen";
        Alcotest.(check (list string)) "captured only while trapped" [ "hello" ] !seen);
    Alcotest.test_case "adopt_guest_state moves identity" `Quick (fun () ->
        let _, host = mk_host () in
        let a = launch_exn host (small_vm ~name:"a" ()) in
        let b = launch_exn host (small_vm ~name:"b" ()) in
        Vmm.Vm.set_os_release a "CustomOS 1.0";
        let f = Memory.File_image.generate (Sim.Rng.create 1) ~name:"doc" ~pages:2 in
        ignore (Vmm.Vm.load_file a f);
        Vmm.Vm.adopt_guest_state b ~from:a;
        Alcotest.(check string) "os copied" "CustomOS 1.0" (Vmm.Vm.os_release b);
        Alcotest.(check bool) "file map copied" true (Vmm.Vm.file_offset b "doc" <> None));
  ]

let nested_tests =
  [
    Alcotest.test_case "nested hypervisor requires vmx" `Quick (fun () ->
        let ctx, host = mk_host () in
        let vm = launch_exn host (small_vm ()) in
        Alcotest.(check bool) "refused" true
          (Result.is_error (Vmm.Hypervisor.create_nested ctx ~vm ~name:"hv")));
    Alcotest.test_case "nested launch carves RAM from the guest" `Quick (fun () ->
        let ctx, host = mk_host () in
        let guestx = launch_exn host (small_vm ~name:"guestx" ~memory_mb:16 ~vmx:true ()) in
        let hv =
          match Vmm.Hypervisor.create_nested ctx ~vm:guestx ~name:"hv" with
          | Ok hv -> hv
          | Error e -> Alcotest.fail e
        in
        let nested = launch_exn hv (small_vm ~name:"l2" ~memory_mb:4 ()) in
        Alcotest.(check int) "L2" 2 (Vmm.Level.to_int (Vmm.Vm.level nested));
        Alcotest.(check bool) "window not root" false
          (Memory.Address_space.is_root (Vmm.Vm.ram nested));
        (* writes at L2 surface in GuestX's RAM *)
        let c = Memory.Page.Content.of_int 42 in
        ignore (Memory.Address_space.write (Vmm.Vm.ram nested) 0 c);
        let root, idx = Memory.Address_space.resolve (Vmm.Vm.ram nested) 0 in
        Alcotest.(check bool) "root is guestx ram" true (root == Vmm.Vm.ram guestx);
        Alcotest.(check bool) "content visible" true
          (Memory.Page.Content.equal c (Memory.Address_space.read (Vmm.Vm.ram guestx) idx)));
    Alcotest.test_case "nested launch with vtx plants a VMCS" `Quick (fun () ->
        let ctx, host = mk_host () in
        let guestx = launch_exn host (small_vm ~name:"guestx" ~memory_mb:16 ~vmx:true ()) in
        let hv =
          Result.get_ok (Vmm.Hypervisor.create_nested ctx ~vm:guestx ~name:"hv")
        in
        ignore (launch_exn hv (small_vm ~name:"l2" ~memory_mb:4 ()));
        Alcotest.(check bool) "signature present" true
          (Vmm.Vmcs.scan (Vmm.Vm.ram guestx) <> []));
    Alcotest.test_case "software nesting leaves no VMCS" `Quick (fun () ->
        let ctx, host = mk_host () in
        let guestx = launch_exn host (small_vm ~name:"guestx" ~memory_mb:16 ~vmx:true ()) in
        let hv =
          Result.get_ok
            (Vmm.Hypervisor.create_nested ~use_vtx:false ctx ~vm:guestx ~name:"hv")
        in
        ignore (launch_exn hv (small_vm ~name:"l2" ~memory_mb:4 ()));
        Alcotest.(check (list int)) "no signature" [] (Vmm.Vmcs.scan (Vmm.Vm.ram guestx)));
    Alcotest.test_case "nested allocation exhausts" `Quick (fun () ->
        let ctx, host = mk_host () in
        let guestx = launch_exn host (small_vm ~name:"guestx" ~memory_mb:8 ~vmx:true ()) in
        let hv =
          Result.get_ok (Vmm.Hypervisor.create_nested ctx ~vm:guestx ~name:"hv")
        in
        (* 8 MB guest: 2048 pages, floor at 512 -> at most ~1.5K pages for
           nested VMs; a 8 MB nested VM cannot fit *)
        Alcotest.(check bool) "too big" true
          (Result.is_error (Vmm.Hypervisor.launch hv (small_vm ~name:"big" ~memory_mb:8 ()))));
    Alcotest.test_case "vmcs signature detection is specific" `Quick (fun () ->
        let r = Sim.Rng.create 99 in
        let false_hits = ref 0 in
        for _ = 1 to 10_000 do
          if Vmm.Vmcs.is_signature (Memory.Page.Content.random r) then incr false_hits
        done;
        Alcotest.(check int) "no false positives in 10k random pages" 0 !false_hits);
  ]

let monitor_tests =
  let exec vm cmd =
    match Vmm.Monitor.execute vm cmd with
    | Vmm.Monitor.Ok_text s -> s
    | Vmm.Monitor.Error_text e -> Alcotest.failf "monitor error: %s" e
    | Vmm.Monitor.Quit -> "quit"
  in
  let contains = contains_sub in
  [
    Alcotest.test_case "info status reflects state" `Quick (fun () ->
        let _, host = mk_host () in
        let vm = launch_exn host (small_vm ()) in
        Alcotest.(check bool) "running" true (contains (exec vm "info status") "running");
        ignore (exec vm "stop");
        Alcotest.(check bool) "paused" true (contains (exec vm "info status") "paused");
        ignore (exec vm "cont");
        Alcotest.(check bool) "running again" true (contains (exec vm "info status") "running"));
    Alcotest.test_case "info qtree shows devices" `Quick (fun () ->
        let _, host = mk_host () in
        let vm = launch_exn host (small_vm ()) in
        let out = exec vm "info qtree" in
        Alcotest.(check bool) "nic" true (contains out "virtio-net-pci");
        Alcotest.(check bool) "disk" true (contains out "virtio-blk-pci"));
    Alcotest.test_case "info mtree shows memory size" `Quick (fun () ->
        let _, host = mk_host () in
        let vm = launch_exn host (small_vm ~memory_mb:8 ()) in
        Alcotest.(check bool) "8 MB" true (contains (exec vm "info mtree") "size 8 MB"));
    Alcotest.test_case "info network shows hostfwd" `Quick (fun () ->
        let _, host = mk_host () in
        let cfg = Vmm.Qemu_config.with_hostfwd (small_vm ()) [ (2222, 22) ] in
        let vm = launch_exn host cfg in
        Alcotest.(check bool) "rule rendered" true
          (contains (exec vm "info network") "hostfwd tcp::2222->:22"));
    Alcotest.test_case "identity topics answer" `Quick (fun () ->
        let _, host = mk_host () in
        let vm = launch_exn host (small_vm ()) in
        Alcotest.(check string) "name" "vm" (exec vm "info name");
        Alcotest.(check bool) "version" true (contains (exec vm "info version") "2.9");
        Alcotest.(check bool) "kvm" true (contains (exec vm "info kvm") "enabled");
        let uuid1 = exec vm "info uuid" in
        Alcotest.(check string) "uuid stable" uuid1 (exec vm "info uuid"));
    Alcotest.test_case "monitor commands consume a little virtual time" `Quick (fun () ->
        let ctx, host = mk_host () in
        let vm = launch_exn host (small_vm ()) in
        let before = Sim.Engine.now (Sim.Ctx.engine ctx) in
        ignore (exec vm "info status");
        Alcotest.(check bool) "clock advanced" true
          Sim.Time.(Sim.Engine.now (Sim.Ctx.engine ctx) > before));
    Alcotest.test_case "unknown commands and topics fail" `Quick (fun () ->
        let _, host = mk_host () in
        let vm = launch_exn host (small_vm ()) in
        (match Vmm.Monitor.execute vm "info nonsense" with
        | Vmm.Monitor.Error_text _ -> ()
        | _ -> Alcotest.fail "expected error");
        match Vmm.Monitor.execute vm "frobnicate" with
        | Vmm.Monitor.Error_text _ -> ()
        | _ -> Alcotest.fail "expected error");
    Alcotest.test_case "quit stops the VM" `Quick (fun () ->
        let _, host = mk_host () in
        let vm = launch_exn host (small_vm ()) in
        (match Vmm.Monitor.execute vm "quit" with
        | Vmm.Monitor.Quit -> ()
        | _ -> Alcotest.fail "expected quit");
        Alcotest.(check bool) "stopped" false (Vmm.Vm.is_alive vm));
    Alcotest.test_case "migrate without backend errors" `Quick (fun () ->
        let _, host = mk_host () in
        let vm = launch_exn host (small_vm ()) in
        match Vmm.Monitor.execute vm "migrate tcp:1.2.3.4:5600" with
        | Vmm.Monitor.Error_text e ->
          Alcotest.(check bool) "mentions backend" true (contains e "backend")
        | _ -> Alcotest.fail "expected error");
    Alcotest.test_case "bad migration uri rejected" `Quick (fun () ->
        let _, host = mk_host () in
        let vm = launch_exn host (small_vm ()) in
        match Vmm.Monitor.execute vm "migrate fd:3" with
        | Vmm.Monitor.Error_text _ -> ()
        | _ -> Alcotest.fail "expected error");
  ]

let disk_tests =
  [
    Alcotest.test_case "qcow2 starts thin, raw starts full" `Quick (fun () ->
        let q = Vmm.Disk_image.create ~name:"a.qcow2" ~format:Vmm.Disk_image.Qcow2 ~virtual_size_gb:20. in
        let r = Vmm.Disk_image.create ~name:"b.raw" ~format:Vmm.Disk_image.Raw ~virtual_size_gb:1. in
        Alcotest.(check bool) "thin" true
          (Vmm.Disk_image.allocated_bytes q < 1024 * 1024);
        Alcotest.(check int) "full" (1024 * 1024 * 1024) (Vmm.Disk_image.allocated_bytes r));
    Alcotest.test_case "guest writes allocate, capped at virtual size" `Quick (fun () ->
        let img =
          Vmm.Disk_image.create ~name:"c.qcow2" ~format:Vmm.Disk_image.Qcow2
            ~virtual_size_gb:0.001
        in
        let before = Vmm.Disk_image.allocated_bytes img in
        Vmm.Disk_image.guest_write img ~bytes:(512 * 1024);
        Alcotest.(check bool) "grew" true (Vmm.Disk_image.allocated_bytes img > before);
        Vmm.Disk_image.guest_write img ~bytes:(100 * 1024 * 1024);
        Alcotest.(check bool) "capped" true
          (Vmm.Disk_image.allocated_bytes img
          <= Vmm.Disk_image.virtual_size_bytes img + Vmm.Disk_image.cluster_bytes));
    Alcotest.test_case "qemu-img info round-trips the virtual size" `Quick (fun () ->
        let img =
          Vmm.Disk_image.create ~name:"d.qcow2" ~format:Vmm.Disk_image.Qcow2 ~virtual_size_gb:20.
        in
        match Vmm.Disk_image.parse_virtual_size (Vmm.Disk_image.qemu_img_info img) with
        | Ok gb -> Alcotest.(check (float 0.01)) "20G" 20. gb
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "hypervisor owns one image per file name" `Quick (fun () ->
        let _, host = mk_host () in
        let vm = launch_exn host (small_vm ()) in
        (match Vmm.Hypervisor.image host "vm.qcow2" with
        | Some img -> Alcotest.(check bool) "same object" true (img == Vmm.Vm.disk vm)
        | None -> Alcotest.fail "image missing");
        Alcotest.(check bool) "absent image errors" true
          (Result.is_error (Vmm.Hypervisor.qemu_img_info host "nope.qcow2")));
    Alcotest.test_case "disk_write shows up in blockstats" `Quick (fun () ->
        let _, host = mk_host () in
        let vm = launch_exn host (small_vm ()) in
        Vmm.Vm.disk_write vm ~bytes:(256 * 1024);
        let out = Vmm.Monitor.execute_exn vm "info blockstats" in
        Alcotest.(check bool) "wr_operations=1" true (contains_sub out "wr_operations=1");
        Alcotest.(check bool) "allocated grew" true
          (Vmm.Disk_image.allocated_bytes (Vmm.Vm.disk vm) >= 256 * 1024));
  ]

(* Property tests for the monitor command language: [execute] is a
   total function over arbitrary input lines, and the dispatch table
   stays in sync with [help_text]. *)
let monitor_property_tests =
  (* first words the dispatcher recognises; anything else must come
     back as a polite unknown-command error *)
  let known_heads =
    [
      "help"; "info"; "migrate"; "migrate_cancel"; "migrate_recover"; "migrate_set_speed";
      "stop"; "cont"; "quit";
    ]
  in
  let vocab_token =
    QCheck.Gen.oneofl
      (known_heads
      @ [ "status"; "qtree"; "mem"; "uuid"; "-d"; "tcp:1.2.3.4:5600"; "fd:3"; "1g"; "bogus" ])
  in
  let garbage_token = QCheck.Gen.(string_size ~gen:printable (int_range 0 12)) in
  let line_gen =
    QCheck.Gen.(
      frequency
        [
          (3, map (String.concat " ") (list_size (int_range 0 4) vocab_token));
          (2, map (String.concat " ") (list_size (int_range 0 4) garbage_token));
          (1, garbage_token);
        ])
  in
  let arbitrary_line = QCheck.make ~print:(Printf.sprintf "%S") line_gen in
  let is_unknown_error = function
    | Vmm.Monitor.Error_text e ->
      contains_sub e "unknown command" || contains_sub e "unknown topic"
    | Vmm.Monitor.Ok_text _ | Vmm.Monitor.Quit -> false
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"execute never raises on arbitrary input" ~count:300
         arbitrary_line (fun line ->
           (* one shared VM: a generated "quit" stops it, and execute
              must keep answering (with errors) on the dead VM too *)
           let _, host = mk_host () in
           let vm = launch_exn host (small_vm ()) in
           ignore (Vmm.Monitor.execute vm line);
           true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"unrecognised first words are unknown-command errors" ~count:200
         arbitrary_line (fun line ->
           let _, host = mk_host () in
           let vm = launch_exn host (small_vm ()) in
           match
             List.filter (fun w -> not (String.equal w "")) (String.split_on_char ' ' line)
           with
           | [] -> Vmm.Monitor.execute vm line = Vmm.Monitor.Ok_text ""
           | head :: _ when not (List.mem head known_heads) ->
             is_unknown_error (Vmm.Monitor.execute vm line)
           | _ :: _ -> true));
    Alcotest.test_case "every help_text command has an accepted spelling" `Quick (fun () ->
        let _, host = mk_host () in
        let vm = launch_exn host (small_vm ()) in
        let canonical lhs =
          (* turn a help synopsis into one concrete invocation *)
          let toks =
            List.filter
              (fun w -> not (String.equal w "") && not (String.equal w "[-d]"))
              (String.split_on_char ' ' lhs)
          in
          let toks = List.map (fun w -> if String.equal w "uri" then "tcp:1.2.3.4:5600" else w) toks in
          match toks with
          | [ "migrate_set_speed" ] -> "migrate_set_speed 1g"
          | toks -> String.concat " " toks
        in
        String.split_on_char '\n' Vmm.Monitor.help_text
        |> List.iter (fun help_line ->
               let lhs =
                 match String.index_opt help_line '-' with
                 | Some i when i > 0 -> String.sub help_line 0 i
                 | _ -> help_line
               in
               let cmd = canonical lhs in
               (* "quit" would stop the shared VM; it has its own test *)
               if not (String.equal cmd "quit") then
                 match Vmm.Monitor.execute vm cmd with
                 | resp when is_unknown_error resp ->
                   Alcotest.failf "help_text advertises %S but dispatch rejects it" cmd
                 | _ -> ());
        (match Vmm.Monitor.execute vm "quit" with
        | Vmm.Monitor.Quit -> ()
        | _ -> Alcotest.fail "quit did not Quit");
        (* dispatch stays total after the VM dies *)
        match Vmm.Monitor.execute vm "info status" with
        | Vmm.Monitor.Ok_text _ | Vmm.Monitor.Error_text _ -> ()
        | Vmm.Monitor.Quit -> Alcotest.fail "dead VM quit again");
  ]

let layers_tests =
  [
    Alcotest.test_case "bare_metal runs at L0" `Quick (fun () ->
        let env = Vmm.Layers.bare_metal ~ksm_config:Memory.Ksm.fast_config ~workspace_mb:8 (Sim.Ctx.create ()) in
        Alcotest.(check int) "L0" 0 (Vmm.Level.to_int env.Vmm.Layers.exec_level);
        Alcotest.(check bool) "no vm" true (env.Vmm.Layers.exec_vm = None));
    Alcotest.test_case "single_guest runs at L1" `Quick (fun () ->
        let config = { (Vmm.Qemu_config.default ~name:"guest0") with Vmm.Qemu_config.memory_mb = 8 } in
        let env = Vmm.Layers.single_guest ~ksm_config:Memory.Ksm.fast_config ~config (Sim.Ctx.create ()) in
        Alcotest.(check int) "L1" 1 (Vmm.Level.to_int env.Vmm.Layers.exec_level));
    Alcotest.test_case "nested_guest runs at L2" `Quick (fun () ->
        let config = { (Vmm.Qemu_config.default ~name:"guest0") with Vmm.Qemu_config.memory_mb = 8 } in
        let env =
          Vmm.Layers.nested_guest ~ksm_config:Memory.Ksm.fast_config ~guestx_memory_mb:64
            ~config (Sim.Ctx.create ())
        in
        Alcotest.(check int) "L2" 2 (Vmm.Level.to_int env.Vmm.Layers.exec_level);
        Alcotest.(check bool) "guestx present" true (env.Vmm.Layers.guestx <> None));
    Alcotest.test_case "migration_pair nested dest is L2 and incoming" `Quick (fun () ->
        let config = { (Vmm.Qemu_config.default ~name:"guest0") with Vmm.Qemu_config.memory_mb = 8 } in
        let mp =
          Vmm.Layers.migration_pair ~ksm_config:Memory.Ksm.fast_config ~config ~nested_dest:true
            (Sim.Ctx.create ())
        in
        Alcotest.(check int) "dest L2" 2 (Vmm.Level.to_int (Vmm.Vm.level mp.Vmm.Layers.mp_dest));
        Alcotest.(check bool) "incoming" true
          (Vmm.Vm.state mp.Vmm.Layers.mp_dest = Vmm.Vm.Incoming));
  ]

let () =
  Alcotest.run "vmm"
    [
      ("level", level_tests);
      ("cost_model", cost_model_tests);
      ("process_table", process_table_tests);
      ("qemu_config", qemu_config_tests);
      ("vm", vm_tests);
      ("nested", nested_tests);
      ("monitor", monitor_tests);
      ("monitor-properties", monitor_property_tests);
      ("disk", disk_tests);
      ("layers", layers_tests);
    ]
