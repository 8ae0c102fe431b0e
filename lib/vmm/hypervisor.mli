(** Hypervisors.

    A hypervisor launches and hosts VMs. It may sit on physical hardware
    (L0: owns the machine's frame table, runs ksmd) or inside a guest
    whose CPU exposes nested VMX (the rootkit's GuestX), in which case
    guest RAM for its VMs is carved out of the enclosing VM's own RAM -
    so every nested page stays visible to the levels below, which is
    what the detection approach exploits. *)

type t

(** {2 Construction} *)

val create_l0 :
  ?ram_gb:int ->
  ?ksm_config:Memory.Ksm.config ->
  Sim.Ctx.t ->
  name:string ->
  uplink:Net.Fabric.switch ->
  addr:Net.Packet.addr ->
  t
(** A bare-metal QEMU/KVM host: [ram_gb] (default 16, the paper's Dell
    T1700), a frame table, a ksmd instance (started), an internal
    virtual switch and a gateway node [addr] attached to both [uplink]
    and the internal switch. The context is this host's instrumentation
    root: its sink is handed to the frame table, ksmd, the internal
    switch and every launched VM (registering the
    [vmm_vm_launches_total{level=...}], [vmm_vm_kills_total{hv=...}] and
    [vmm_vms_running{hv=...}] series), and its trace receives launch and
    kill records. Test hook: only test_integration's "host RAM exhaustion
    surfaces as a launch error" sets [ram_gb], to 1 GB. *)

val create_nested : ?use_vtx:bool -> Sim.Ctx.t -> vm:Vm.t -> name:string -> (t, string) result
(** A hypervisor inside [vm] (the RITM's own QEMU/KVM). Fails when the
    VM's CPU configuration lacks nested VMX, when the VM is not running,
    or when it has no network node. Guest RAM for nested VMs is
    allocated top-down from [vm]'s RAM; the nested hypervisor's process
    table {e is} [vm]'s guest process table.

    [use_vtx] (default true): launch nested guests with hardware VT-x,
    which plants a {!Vmcs} signature page in [vm]'s RAM per nested VM.
    [false] models a software-emulating nested hypervisor - slower, but
    invisible to VMCS memory forensics (paper Section VI-E). *)

(** {2 Accessors} *)

val processes : t -> Process_table.t
val switch : t -> Net.Fabric.switch

val uplink : t -> Net.Fabric.switch
(** The network on the other side of the gateway: the outside world for
    an L0 hypervisor, the enclosing guest's network when nested. *)

val gateway : t -> Net.Fabric.Node.t
val ksm : t -> Memory.Ksm.t option
val frame_table : t -> Memory.Frame_table.t option
(** [Some] only for L0. *)

val telemetry : t -> Sim.Telemetry.t option
(** The sink passed at creation - consulted by components that operate
    on this host without their own telemetry parameter (detectors,
    installers, migration drivers via {!Vm.telemetry}). *)

val vms : t -> Vm.t list
val find_vm : t -> string -> Vm.t option

(** {2 VM lifecycle} *)

val launch : t -> Qemu_config.t -> (Vm.t, string) result
(** Create a VM: allocate RAM, spawn its QEMU process, attach its
    network node, install its host port-forwards on the gateway, and
    register its RAM with ksmd (L0 only). The VM is left [Running], or
    [Incoming] when the config carries [-incoming]. Fails on duplicate
    name or insufficient RAM. *)

val kill_vm : t -> Vm.t -> unit
(** Terminate the VM's QEMU process, remove its port-forwards, detach
    its node and release its RAM. Idempotent. *)

(** {2 Disk images}

    Each hypervisor owns the image files on its storage; launching a VM
    creates (or reopens) the image its config names. *)

val image : t -> string -> Disk_image.t option
(** Test hook: tests check that the host stores a VM's own disk image. *)

val qemu_img_info : t -> string -> (string, string) result
(** What running [qemu-img info <file>] on this host prints - part of
    the attacker's reconnaissance toolkit (Section IV-A). *)

val host_buffer : t -> name:string -> pages:int -> (Memory.Address_space.t, string) result
(** Allocate pages in the hypervisor's own (host userspace) memory,
    registered with ksmd when present - where the detector loads its
    copy of File-A. L0 only. *)

val release_buffer : t -> Memory.Address_space.t -> unit
