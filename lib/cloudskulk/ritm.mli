(** The installed Rootkit-In-The-Middle.

    Handle to a completed CloudSkulk installation: the GuestX VM the
    attacker controls, the nested hypervisor inside it, the victim VM
    now running at L2, and the port relationships that keep the victim's
    access path unchanged. Services ({!Services}) operate on this
    handle. *)

type ports = {
  migration_host_port : int;  (** HOST PORT AAAA in the paper *)
  migration_ritm_port : int;  (** ROOTKIT PORT BBBB *)
}

type t = {
  engine : Sim.Engine.t;
  host : Vmm.Hypervisor.t;
  registry : Migration.Registry.t;
  guestx : Vmm.Vm.t;  (** the RITM VM, impersonating the victim at L1 *)
  nested_hv : Vmm.Hypervisor.t;  (** the attacker's hypervisor inside GuestX *)
  victim : Vmm.Vm.t;  (** the migrated victim, now at L2 *)
  ports : ports;
  installed_at : Sim.Time.t;
}

val guestx_node : t -> Net.Fabric.Node.t
(** GuestX's network node - every packet to or from the victim crosses
    it, which is where taps go. *)

val is_intact : t -> bool
(** GuestX and the victim are both still alive and the victim is
    nested. Test hook: tests check it after an install, a victim reboot and
    a kill. *)
