(* Attack demo: the full CloudSkulk installation against a victim that
   is actively using their VM, followed by the attacker's passive and
   active services - the scenario of paper Sections III and IV.

   Run with: dune exec examples/attack_demo.exe *)

let banner title = Printf.printf "\n=== %s ===\n" title

let () =
  let ctx = Sim.Ctx.create ~seed:11 () in
  let engine = Sim.Ctx.engine ctx in
  let uplink = Net.Fabric.Switch.create ctx ~name:"internet" ~link:Net.Link.lan_1gbe in
  let host = Vmm.Hypervisor.create_l0 ctx ~name:"cloud-host" ~uplink ~addr:"192.168.1.100" in
  let registry = Migration.Registry.create () in

  banner "a customer rents a VM and works in it";
  let config =
    Vmm.Qemu_config.with_hostfwd (Vmm.Qemu_config.default ~name:"guest0") [ (2222, 22) ]
  in
  let guest0 = Result.get_ok (Vmm.Hypervisor.launch host config) in
  Printf.printf "guest0 up at %s (pid %d), SSH on host:2222\n" (Vmm.Vm.addr guest0)
    (Vmm.Vm.qemu_pid guest0);
  (* the customer's workload: an I/O-heavy file server *)
  let wenv =
    Workload.Exec_env.make ~vm:guest0 ~ctx ~level:(Vmm.Vm.level guest0)
      ~ram:(Vmm.Vm.ram guest0) ~rng:(Sim.Ctx.fork_rng ctx) ()
  in
  let workload = Workload.Background.start wenv (Workload.Filebench.background ()) in
  ignore (Sim.Engine.run_for engine (Sim.Time.s 5.));

  banner "the attacker (root on the host) reconnoitres";
  List.iter
    (fun f ->
      Printf.printf "ps: pid %d -> %s\n" f.Cloudskulk.Recon.qemu_pid
        f.Cloudskulk.Recon.cmdline)
    (Cloudskulk.Recon.list_targets host);

  banner "four steps: GuestX, nested hypervisor, destination, live migration";
  let report =
    match Cloudskulk.Install.run ctx ~host ~registry ~target_name:"guest0" with
    | Ok r -> r
    | Error e -> failwith e
  in
  Workload.Background.stop workload;
  Format.printf "%a" Cloudskulk.Install.pp_report report;
  let ritm = report.Cloudskulk.Install.ritm in

  banner "the victim notices nothing: same address, same port, same OS";
  let victim = ritm.Cloudskulk.Ritm.victim in
  Printf.printf "victim now at %s inside %s; os: %s\n"
    (Vmm.Level.to_string (Vmm.Vm.level victim))
    (Vmm.Vm.name ritm.Cloudskulk.Ritm.guestx)
    (Vmm.Vm.os_release victim);
  let got = ref 0 in
  (match Vmm.Vm.node victim with
  | Some node -> Net.Fabric.Node.listen node 22 (fun _ -> incr got)
  | None -> ());
  let user = Net.Fabric.Node.create ~addr:"203.0.113.5" in
  Net.Fabric.Node.attach user uplink;
  Net.Fabric.Switch.send uplink
    (Net.Packet.make ~id:1
       ~src:(Net.Packet.endpoint "203.0.113.5" 40000)
       ~dst:(Net.Packet.endpoint "192.168.1.100" 2222)
       "ssh: still works");
  ignore (Sim.Engine.run_for engine (Sim.Time.s 1.));
  Printf.printf "SSH over the old path reached the (now nested) VM: %b\n" (!got = 1);

  banner "passive service: keystroke logging from the middle";
  let keylogger = Cloudskulk.Services.start_keylogger ritm ~ports:[ 22 ] in
  Net.Fabric.Switch.send uplink
    (Net.Packet.make ~id:2
       ~src:(Net.Packet.endpoint "203.0.113.5" 40000)
       ~dst:(Net.Packet.endpoint "192.168.1.100" 2222)
       "cat ~/.ssh/id_rsa");
  ignore (Sim.Engine.run_for engine (Sim.Time.s 1.));
  List.iter (Printf.printf "logged keystrokes: %s\n") (Cloudskulk.Services.keystrokes keylogger);

  banner "passive service: trapping writes before encryption";
  let trap = Cloudskulk.Services.trap_guest_writes ritm in
  let sniffer = Cloudskulk.Services.start_packet_capture ritm in
  Cloudskulk.Services.victim_send ritm ~encrypted:true
    ~dst:(Net.Packet.endpoint "bank.example" 443)
    "POST /transfer amount=100000";
  ignore (Sim.Engine.run_for engine (Sim.Time.s 1.));
  List.iter
    (fun c ->
      Printf.printf "on the wire the RITM sees: %s\n"
        c.Cloudskulk.Services.observed_payload)
    (Cloudskulk.Services.captures sniffer);
  List.iter
    (Printf.printf "but the write trap recorded the plaintext: %s\n")
    (Cloudskulk.Services.trapped_writes trap);

  banner "active service: tampering with a web order in flight";
  let stats =
    Cloudskulk.Services.rewrite_traffic ritm ~port:80 ~pattern:"BUY" ~replacement:"SELL"
  in
  let exchange = Net.Fabric.Node.create ~addr:"203.0.113.80" in
  Net.Fabric.Node.attach exchange uplink;
  let received = ref "" in
  Net.Fabric.Node.listen exchange 80 (fun p -> received := p.Net.Packet.payload);
  Cloudskulk.Services.victim_send ritm
    ~dst:(Net.Packet.endpoint "203.0.113.80" 80)
    "order: BUY 500 shares";
  ignore (Sim.Engine.run_for engine (Sim.Time.s 1.));
  Printf.printf "victim sent:   order: BUY 500 shares\n";
  Printf.printf "exchange got:  %s   (%d packet rewritten)\n" !received
    stats.Cloudskulk.Services.rewritten;

  banner "bonus: a parallel malicious OS beside the victim";
  (match Cloudskulk.Services.launch_parallel_os ritm ~name:"spam-relay" ~memory_mb:256 with
  | Ok vm ->
    Printf.printf "%s running at %s under the attacker's hypervisor\n" (Vmm.Vm.name vm)
      (Vmm.Level.to_string (Vmm.Vm.level vm))
  | Error e -> Printf.printf "failed: %s\n" e);

  Printf.printf "\nattack demo done at virtual time %s\n"
    (Sim.Time.to_string (Sim.Engine.now engine))
