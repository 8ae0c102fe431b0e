type capture = {
  at : Sim.Time.t;
  packet : Net.Packet.t;
  observed_payload : string;
}

let now ritm = Sim.Engine.now ritm.Ritm.engine

(* {2 Packet capture} *)

type sniffer = { mutable captured : capture list }

let start_packet_capture ritm =
  let s = { captured = [] } in
  Net.Fabric.Node.add_tap (Ritm.guestx_node ritm) (fun packet ->
      let c =
        { at = now ritm; packet; observed_payload = Net.Packet.visible_payload packet }
      in
      s.captured <- c :: s.captured;
      Net.Fabric.Forward);
  s

let captures s = List.rev s.captured

(* {2 Keylogger} *)

type keylogger = {
  key_ports : int list;
  mutable keys : string list;
}

let start_keylogger ritm ~ports =
  let k = { key_ports = ports; keys = [] } in
  let node = Ritm.guestx_node ritm in
  Net.Fabric.Node.add_tap node (fun packet ->
      (* inbound victim traffic arrives pre-NAT (e.g. on forwarded port
         2222); resolve through GuestX's own forward table to the port
         the victim will actually see *)
      let port = packet.Net.Packet.dst.Net.Packet.port in
      let effective =
        match Net.Fabric.Node.forward_target node port with
        | Some to_ -> to_.Net.Packet.port
        | None -> port
      in
      if List.mem effective k.key_ports then
        k.keys <- Net.Packet.visible_payload packet :: k.keys;
      Net.Fabric.Forward);
  k

let keystrokes k = List.rev k.keys

(* {2 Pre-encryption write trap} *)

type write_trap = {
  trap_name : string;
  mutable writes : string list;
}

let trap_guest_writes ritm =
  let t = { trap_name = "cs-write-trap"; writes = [] } in
  Vmm.Vm.trap_write_syscalls ritm.Ritm.victim ~name:t.trap_name (fun data ->
      t.writes <- data :: t.writes);
  t

let trapped_writes t = List.rev t.writes

let untrap_guest_writes ritm t =
  Vmm.Vm.untrap_write_syscalls ritm.Ritm.victim ~name:t.trap_name

(* {2 Parallel malicious OS} *)

let launch_parallel_os ritm ~name ~memory_mb =
  let base = Vmm.Qemu_config.default ~name in
  let config =
    {
      base with
      Vmm.Qemu_config.memory_mb;
      monitor_port = 5700;
      disk = { base.Vmm.Qemu_config.disk with Vmm.Qemu_config.image = name ^ ".qcow2" };
    }
  in
  Vmm.Hypervisor.launch ritm.Ritm.nested_hv config

(* {2 Active services} *)

type active_stats = {
  mutable dropped : int;
  mutable rewritten : int;
}

let replace_all ~pattern ~replacement s =
  let plen = String.length pattern in
  if plen = 0 then s
  else begin
    let buf = Buffer.create (String.length s) in
    let rec go i =
      if i > String.length s - plen then Buffer.add_string buf (String.sub s i (String.length s - i))
      else if String.sub s i plen = pattern then begin
        Buffer.add_string buf replacement;
        go (i + plen)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
    in
    go 0;
    Buffer.contents buf
  end

let drop_traffic ritm ~port =
  let stats = { dropped = 0; rewritten = 0 } in
  Net.Fabric.Node.add_tap (Ritm.guestx_node ritm) (fun packet ->
      if packet.Net.Packet.dst.Net.Packet.port = port then begin
        stats.dropped <- stats.dropped + 1;
        Net.Fabric.Drop
      end
      else Net.Fabric.Forward);
  stats

let rewrite_traffic ritm ~port ~pattern ~replacement =
  let stats = { dropped = 0; rewritten = 0 } in
  Net.Fabric.Node.add_tap (Ritm.guestx_node ritm) (fun packet ->
      let matches_port = packet.Net.Packet.dst.Net.Packet.port = port in
      if matches_port && not packet.Net.Packet.encrypted then begin
        let payload = replace_all ~pattern ~replacement packet.Net.Packet.payload in
        if String.equal payload packet.Net.Packet.payload then Net.Fabric.Forward
        else begin
          stats.rewritten <- stats.rewritten + 1;
          Net.Fabric.Rewrite { packet with Net.Packet.payload }
        end
      end
      else Net.Fabric.Forward);
  stats

(* {2 Victim-side traffic helper} *)

(* Atomic so concurrent trials keep packet ids globally unique. *)
let packet_counter = Atomic.make 0

let victim_send ritm ~dst ?(encrypted = false) payload =
  let victim = ritm.Ritm.victim in
  (* The application's write syscall happens inside the guest, in the
     clear - an L1 write trap sees it here. *)
  Vmm.Vm.emit_write victim payload;
  let id = Atomic.fetch_and_add packet_counter 1 + 1 in
  let src = Net.Packet.endpoint (Vmm.Vm.addr victim) 48000 in
  let packet = Net.Packet.make ~encrypted ~id ~src ~dst payload in
  let io = Vmm.Vm.io victim in
  io.Vmm.Vm.net_tx_bytes <- io.Vmm.Vm.net_tx_bytes + packet.Net.Packet.size_bytes;
  (* Outbound path: the packet transits GuestX (the victim's hypervisor
     owns the virtual NIC - the attacker's taps run here), then the host
     gateway, then goes out on the host's uplink. *)
  match Net.Fabric.Node.route_through (Ritm.guestx_node ritm) packet with
  | None -> ()  (* an active service dropped it *)
  | Some packet -> (
    match Net.Fabric.Node.route_through (Vmm.Hypervisor.gateway ritm.Ritm.host) packet with
    | None -> ()
    | Some packet -> Net.Fabric.Switch.send (Vmm.Hypervisor.uplink ritm.Ritm.host) packet)
