type tap_action =
  | Forward
  | Drop
  | Rewrite of Packet.t

type tap = Packet.t -> tap_action

type node = {
  node_addr : Packet.addr;
  handlers : (Packet.port, Packet.t -> unit) Hashtbl.t;
  forwards : (Packet.port, Packet.endpoint * switch) Hashtbl.t;
  mutable taps : tap list;
  mutable unhandled : int;
}

and switch = {
  sw_engine : Sim.Engine.t;
  sw_name : string;
  sw_telemetry : Sim.Telemetry.t option;
  link : Link.t;
  stations : (Packet.addr, node) Hashtbl.t;
  mutable dropped : int;
  mutable routed : int;
  (* Uplink escape hatch: packets addressed to no attached station are
     handed here (after the usual link delay) instead of being dropped.
     The fleet layer uses this to turn off-host traffic into mailbox
     messages; without a route behaviour is unchanged. *)
  mutable default_route : (Packet.t -> unit) option;
  mutable m_routed : Sim.Telemetry.counter option;
  m_delivered : Sim.Telemetry.counter;
  m_dropped : Sim.Telemetry.counter;
  m_bytes : Sim.Telemetry.counter;
}

let rec deliver node packet =
  match apply_taps node.taps packet with
  | None -> ()
  | Some packet -> (
    let port = packet.Packet.dst.Packet.port in
    match Hashtbl.find_opt node.forwards port with
    | Some (to_, via) ->
      let forwarded = { packet with Packet.dst = to_ } in
      switch_send via forwarded
    | None -> (
      match Hashtbl.find_opt node.handlers port with
      | Some handler -> handler packet
      | None -> node.unhandled <- node.unhandled + 1))

and apply_taps taps packet =
  match taps with
  | [] -> Some packet
  | tap :: rest -> (
    match tap packet with
    | Forward -> apply_taps rest packet
    | Drop -> None
    | Rewrite p -> apply_taps rest p)

and deliver_on_wire sw node packet =
  Sim.Telemetry.incr sw.m_delivered;
  Sim.Telemetry.add sw.m_bytes packet.Packet.size_bytes;
  deliver node packet

and route_on_wire sw route packet =
  sw.routed <- sw.routed + 1;
  Option.iter Sim.Telemetry.incr sw.m_routed;
  Sim.Telemetry.add sw.m_bytes packet.Packet.size_bytes;
  route packet

and switch_send sw packet =
  match Hashtbl.find_opt sw.stations packet.Packet.dst.Packet.addr with
  | None -> (
    match sw.default_route with
    | None ->
      sw.dropped <- sw.dropped + 1;
      Sim.Telemetry.incr sw.m_dropped
    | Some route ->
      let delay = Link.transfer_time sw.link packet.Packet.size_bytes in
      ignore
        (Sim.Engine.schedule_after sw.sw_engine delay (fun () ->
             route_on_wire sw route packet)))
  | Some node ->
    let delay = Link.transfer_time sw.link packet.Packet.size_bytes in
    ignore (Sim.Engine.schedule_after sw.sw_engine delay (fun () -> deliver_on_wire sw node packet))

module Switch = struct
  type t = switch

  let create ctx ~name ~link =
    let telemetry = Sim.Ctx.telemetry ctx in
    let labels = [ ("switch", name) ] in
    {
      sw_engine = Sim.Ctx.engine ctx;
      sw_name = name;
      sw_telemetry = telemetry;
      link;
      stations = Hashtbl.create 16;
      dropped = 0;
      routed = 0;
      default_route = None;
      m_routed = None;
      m_delivered =
        Sim.Telemetry.counter telemetry ~labels ~component:"net" "packets_delivered_total";
      m_dropped =
        Sim.Telemetry.counter telemetry ~labels ~component:"net" "packets_dropped_total";
      m_bytes =
        Sim.Telemetry.counter telemetry ~labels ~component:"net" "bytes_carried_total";
    }

  (* The routed counter is registered on first use, not at create time,
     so switches that never set a route export exactly the series they
     always did. *)
  let set_default_route t route =
    t.default_route <- route;
    if route <> None && t.m_routed = None then
      t.m_routed <-
        Some
          (Sim.Telemetry.counter t.sw_telemetry
             ~labels:[ ("switch", t.sw_name) ]
             ~component:"net" "packets_routed_total")

  let send = switch_send
  let packets_dropped t = t.dropped
  let packets_routed t = t.routed
end

module Node = struct
  type t = node

  let create ~addr =
    {
      node_addr = addr;
      handlers = Hashtbl.create 8;
      forwards = Hashtbl.create 8;
      taps = [];
      unhandled = 0;
    }

  let addr t = t.node_addr
  let attach t sw = Hashtbl.replace sw.stations t.node_addr t

  let detach t sw =
    match Hashtbl.find_opt sw.stations t.node_addr with
    | Some n when n == t -> Hashtbl.remove sw.stations t.node_addr
    | Some _ | None -> ()
  let listen t port handler = Hashtbl.replace t.handlers port handler
  let add_forward t ~from_port ~to_ ~via = Hashtbl.replace t.forwards from_port (to_, via)
  let remove_forward t ~from_port = Hashtbl.remove t.forwards from_port
  let forward_target t port = Option.map fst (Hashtbl.find_opt t.forwards port)

  let forwards t =
    Hashtbl.fold (fun port (to_, _) acc -> (port, to_) :: acc) t.forwards []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  let add_tap t tap = t.taps <- t.taps @ [ tap ]

  let route_through t packet = apply_taps t.taps packet

  let packets_unhandled t = t.unhandled
end
