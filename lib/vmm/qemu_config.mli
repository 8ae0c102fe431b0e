(** QEMU virtual machine configuration.

    Live migration requires the destination VM to be created with the
    same device configuration as the source (paper Section IV-A), so the
    attacker's first job is recovering this record for the target - from
    the host's command lines or from monitor introspection - and the
    migration layer refuses mismatched endpoints just as QEMU does. *)

type disk = {
  image : string;  (** image file name *)
  size_gb : float;
  format : string;  (** "qcow2" / "raw" *)
}

type netdev = {
  model : string;  (** e.g. "virtio-net-pci" *)
  mac : string;
  hostfwd : (int * int) list;
      (** (host port, guest port) port-forward rules, as in
          [-netdev user,hostfwd=tcp::H-:G] *)
}

type t = {
  vm_name : string;
  memory_mb : int;
  vcpus : int;
  machine : string;  (** e.g. "pc-i440fx-2.9" *)
  cpu_model : string;
  accel_kvm : bool;
  nested_vmx : bool;  (** [-cpu host,+vmx]: can this guest host VMs? *)
  disk : disk;
  netdev : netdev;
  monitor_port : int;  (** monitor multiplexed on a telnet port *)
  vnc_display : int;
  incoming : int option;  (** [-incoming tcp:0.0.0.0:PORT] when paused awaiting migration *)
}

val default : name:string -> t
(** The paper's guest: 1024 MB, 1 vCPU, virtio disk and net, KVM on,
    QEMU 2.9-era machine type. *)

val with_incoming : t -> port:int -> t
val with_hostfwd : t -> (int * int) list -> t
val with_nested_vmx : t -> bool -> t
val with_name : t -> string -> t

val memory_pages : t -> int

val to_cmdline : t -> string
(** The [qemu-system-x86_64 ...] invocation this config renders to; what
    appears in the host process table. *)

val of_cmdline : string -> (t, string) result
(** Parse a command line produced by {!to_cmdline} - the attacker's
    [ps -ef] reconnaissance path. *)

val migration_compatible : source:t -> dest:t -> (unit, string) result
(** QEMU's compatibility check: machine type, memory size, vCPUs, disk
    size/format and NIC model must match; names, forwarding rules,
    monitor ports and the incoming flag may differ. *)

val pp : Format.formatter -> t -> unit
