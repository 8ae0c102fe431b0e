(** Migration endpoint registry.

    QEMU migration targets are [tcp:host:port] URIs. This registry maps
    such endpoints to VMs paused in the incoming state, and follows
    port-forward rules so that the rootkit's chain - source sends to
    HOST:AAAA, the host forwards AAAA into GuestX's BBBB, where the
    nested destination listens (paper Section IV-A) - resolves to the
    right VM. *)

type t

val create : unit -> t

val register_incoming : t -> addr:Net.Packet.addr -> port:int -> Vmm.Vm.t -> unit
(** Declare that a VM in the incoming state listens at [addr:port]. *)

val unregister : t -> addr:Net.Packet.addr -> port:int -> unit

val add_forward :
  t -> addr:Net.Packet.addr -> port:int -> to_addr:Net.Packet.addr -> to_port:int -> unit
(** NAT rule at the registry level, mirroring a gateway's hostfwd. *)

val resolve : t -> addr:Net.Packet.addr -> port:int -> (Vmm.Vm.t, string) result
(** Follow forwards (at most 16 hops; loops are reported as errors) to
    the listening VM. *)

val hops : t -> addr:Net.Packet.addr -> port:int -> int
(** Number of forward rules traversed when resolving (0 if direct).
    Test hook: tests check the forward chain that {!resolve} walks. *)
