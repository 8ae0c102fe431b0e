(** Switched network fabric: nodes, switches, taps, port forwarding.

    Nodes attach to a switch and receive packets addressed to them.
    Two mechanisms matter for CloudSkulk:

    - {e taps}: an interposed observer on a node that can inspect, drop,
      or rewrite every packet that passes through it - how the RITM runs
      its passive and active services;
    - {e port forwarding} (NAT): a node can relay a port to another
      node reachable through some switch - how the attacker keeps the
      victim's SSH address and port unchanged after migrating the VM
      into GuestX (paper Section III-A).

    Topologies may be nested: GuestX is a node on the host switch that
    also owns an inner switch where the migrated victim VM attaches. *)

type node
type switch

type tap_action =
  | Forward  (** pass the packet unchanged *)
  | Drop
  | Rewrite of Packet.t  (** pass a modified packet instead *)

type tap = Packet.t -> tap_action

module Switch : sig
  type t = switch

  val create : Sim.Ctx.t -> name:string -> link:Link.t -> t
  (** The context's sink registers per-switch series
      [net_packets_delivered_total{switch=name}],
      [net_packets_dropped_total{switch=name}] and
      [net_bytes_carried_total{switch=name}]. *)

  val send : t -> Packet.t -> unit
  (** Route the packet to the node holding [dst.addr], delivering it
      after the link's transfer time. Packets to unknown addresses are
      counted as dropped. *)

  val set_default_route : t -> (Packet.t -> unit) option -> unit
  (** Install (or clear) the switch's escape hatch: a packet addressed
      to no attached station is handed to the callback after the usual
      link transfer delay, instead of being counted dropped. The fleet
      layer uses this to turn off-host destinations into cross-host
      mailbox messages (DESIGN.md §14). Installing a route registers
      [net_packets_routed_total{switch=name}] on the switch's sink;
      switches that never set one export exactly the series they always
      did. *)

  val packets_dropped : t -> int
  (** Test hook: tests check drops to unknown addresses; runs export
      [net_packets_dropped_total]. *)

  val packets_routed : t -> int
  (** Packets handed to the default route so far. Test hook: the fleet tests
      check the uplink route; runs export [net_packets_routed_total]. *)
end

module Node : sig
  type t = node

  val create : addr:Packet.addr -> t
  val addr : t -> Packet.addr

  val attach : t -> switch -> unit
  (** Register the node on a switch so packets for its address reach it.
      A node may attach to several switches (a gateway). *)

  val detach : t -> switch -> unit
  (** Remove the node from a switch (e.g. when its VM is killed). *)

  val listen : t -> Packet.port -> (Packet.t -> unit) -> unit
  (** Install a handler for packets arriving at a local port (replaces
      any previous handler for that port). *)

  val add_forward :
    t -> from_port:Packet.port -> to_:Packet.endpoint -> via:switch -> unit
  (** NAT rule: packets arriving at [from_port] are re-addressed to
      [to_] and sent out on [via]. *)

  val remove_forward : t -> from_port:Packet.port -> unit

  val forward_target : t -> Packet.port -> Packet.endpoint option
  (** Where a NAT rule on [port] points, if one is installed - lets an
      on-node observer reason about pre-NAT destination ports. *)

  val forwards : t -> (Packet.port * Packet.endpoint) list
  (** All installed NAT rules, sorted by port - what an auditor reads
      out of the host's iptables. *)

  val add_tap : t -> tap -> unit
  (** Taps run in installation order on every arriving packet, before
      NAT and port handlers. The first [Drop] wins; [Rewrite] feeds the
      modified packet to the next tap. *)

  val route_through : t -> Packet.t -> Packet.t option
  (** Treat the node as a middlebox on the packet's path: run its taps
      (counting the packet as received) and return the possibly
      rewritten packet, or [None] if a tap dropped it. Used for egress
      traffic that transits a gateway without terminating there. *)

  val packets_unhandled : t -> int
  (** Arrived for a port with neither handler nor NAT rule. Test hook: tests
      check packets sent to a port nobody listens on. *)
end
