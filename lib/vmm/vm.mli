(** Virtual machines.

    A [Vm.t] is the simulated counterpart of one QEMU process: a
    configuration, a RAM address space, a lifecycle state, a network
    identity, a guest OS (process table, loaded files), and I/O
    counters. VMs are created through {!Hypervisor.launch}; this module
    holds everything that lives per-VM. *)

type state =
  | Created  (** configured but not started *)
  | Incoming  (** paused, listening for migration data *)
  | Running
  | Paused
  | Stopped  (** dead; RAM released *)

val state_to_string : state -> string

type io_counters = {
  mutable block_read_ops : int;
  mutable block_write_ops : int;
  mutable net_tx_bytes : int;
  mutable net_rx_bytes : int;
  mutable vm_exits : int;
  mutable cpu_time : Sim.Time.t;
}

type t

(** {2 Construction (used by Hypervisor)} *)

val make :
  Sim.Ctx.t ->
  config:Qemu_config.t ->
  level:Level.t ->
  ram:Memory.Address_space.t ->
  disk:Disk_image.t ->
  qemu_pid:Process_table.pid ->
  addr:Net.Packet.addr ->
  t
(** The VM lives on the context's engine, emits state changes into its
    trace, and registers its per-level exit counters against its sink. *)

(** {2 Identity and configuration} *)

val name : t -> string
val engine : t -> Sim.Engine.t
val config : t -> Qemu_config.t
val level : t -> Level.t
(** The level the guest's code runs at (1 for a host VM, 2 nested). *)

val ram : t -> Memory.Address_space.t

val disk : t -> Disk_image.t

val disk_write : t -> bytes:int -> unit
(** Guest block write: allocates image clusters and counts one write
    operation. *)

val qemu_pid : t -> Process_table.pid
val set_qemu_pid : t -> Process_table.pid -> unit
val addr : t -> Net.Packet.addr
val io : t -> io_counters

val telemetry : t -> Sim.Telemetry.t option
(** The sink given at construction (the owning hypervisor's) - how
    downstream layers (migration drivers, workloads) reach the metrics
    registry without extra plumbing. *)

val record_exits : t -> int -> unit
(** Charge [n] hardware VM exits to this VM: bumps [io.vm_exits] and the
    [vmm_exits_total{level=...}] counter. *)

val record_nested_fanout : t -> int -> unit
(** Count L0-level exits induced by nested exit multiplication (the
    paper's ~19x fan-out per L2 exit) under
    [vmm_nested_exit_fanout_total{level=...}]. *)

val guest_processes : t -> Process_table.t

val os_release : t -> string
val set_os_release : t -> string -> unit
(** Guest OS identification ("Fedora 22, 4.4.14-200.fc22.x86_64" by
    default) - what a VMI fingerprint reads, and what an impersonating
    RITM copies. *)

(** {2 Lifecycle} *)

val state : t -> state
val start : t -> (unit, string) result
(** [Created -> Running]; an [Incoming] VM cannot be started manually. *)

val pause : t -> (unit, string) result
val resume : t -> (unit, string) result
val await_incoming : t -> (unit, string) result
(** [Created -> Incoming]: the destination side of a migration. *)

val complete_incoming : t -> (unit, string) result
(** [Incoming -> Running]: migration finished; device state loaded. *)

val stop : t -> unit
(** Any state -> [Stopped]. Idempotent. *)

val reboot_guest : t -> (unit, string) result
(** Reboot the guest OS inside a running VM: the QEMU process (and
    hence the VM's position in any nesting) is untouched, guest memory
    is wiped to zero, and a fresh process table comes up. This is why
    CloudSkulk "will still survive" a victim reboot (paper Section
    VII-A): rebooting L2 never escapes GuestX. Test hook: tests check that
    the RITM survives a victim reboot. *)

val is_alive : t -> bool

(** {2 Network} *)

val node : t -> Net.Fabric.Node.t option
val set_node : t -> Net.Fabric.Node.t -> unit

(** {2 Guest memory helpers} *)

val load_file : t -> Memory.File_image.t -> (int, string) result
(** Load a file image into guest RAM at a fresh offset (the guest page
    cache); returns the page offset. Fails when RAM has no room or a
    file of that name is already loaded. *)

val file_offset : t -> string -> int option
(** Where a previously loaded file sits. *)

val unload_file : t -> string -> unit
(** Forget the bookkeeping (contents stay until overwritten). *)

val loaded_files : t -> (string * int * int) list
(** [(name, page offset, pages)] for each loaded file, sorted by name
    (never hash-table order, so listings are deterministic). *)

val adopt_guest_state : t -> from:t -> unit
(** Take over the guest OS identity of another VM: OS release, process
    table, loaded-file map. Called by migration when the destination
    becomes the running instance of the source's OS. *)

(** {2 CPU throttling}

    QEMU's auto-converge forces a stubborn pre-copy migration to finish
    by stealing ever-larger slices of the guest's vCPU time, slowing its
    dirty rate. Workload drivers honour this: a throttled guest skips a
    corresponding fraction of its work. *)

val cpu_throttle : t -> float
(** Fraction of vCPU time currently withheld, in [0, 0.99]. *)

val set_cpu_throttle : t -> float -> unit
(** Clamped to [0, 0.99]. *)

(** {2 Guest-observed time}

    A hypervisor controls its guest's clock sources (TSC scaling, kvmclock).
    [guest_time_scale] is the factor between real elapsed time and what
    code {e inside} the guest measures; a malicious L1 sets it below 1.0
    so that nested-virtualization overhead disappears from guest-side
    timing - the paper's Section VI-A reason to distrust detection from
    L2. *)

val guest_time_scale : t -> float
val set_guest_time_scale : t -> float -> unit
(** Raises [Invalid_argument] unless the scale is positive. *)

val observe_duration : t -> Sim.Time.t -> Sim.Time.t
(** [observe_duration vm d] is what a timing loop inside the guest
    reads when [d] of real (L0) time passes. Test hook: tests check the
    scaling that {!set_guest_time_scale} sets. *)

val spoofs_benchmarks : t -> bool
val set_spoofs_benchmarks : t -> bool -> unit
(** A hypervisor that controls this VM can intercept known benchmark
    binaries and fake their output outright (paper Section VI-A). The
    flag lives on the VM - not in any module-level registry - so
    parallel trials never share detector state. *)

(** {2 Write-syscall tapping}

    A hypervisor that controls this VM can trap its write system calls
    and observe data {e before} the guest encrypts it (paper Section
    IV-B-1). Guest applications report their writes through
    {!emit_write}; installed taps see the plaintext. *)

val trap_write_syscalls : t -> name:string -> (string -> unit) -> unit
val untrap_write_syscalls : t -> name:string -> unit
val emit_write : t -> string -> unit
(** Called by simulated guest applications on every write syscall. *)

(** {2 Migration hook} *)

val set_migrate_handler :
  t -> (host:string -> port:int -> (unit, string) result) -> unit

val migrate_handler :
  t -> (host:string -> port:int -> (unit, string) result) option

(** {2 Migration control plane}

    State the monitor's [migrate_cancel] / [migrate_recover] commands
    and the migration drivers share. The VM layer only stores it; the
    migration library gives it meaning. *)

val request_migrate_cancel : t -> unit
(** Ask the in-flight migration (if any) to abort at its next round
    boundary - the monitor's [migrate_cancel]. Callable from an engine
    event scheduled mid-migration. *)

val migrate_cancel_requested : t -> bool
(** Test hook: tests check the flag that {!request_migrate_cancel} raises.
    *)

val take_migrate_cancel : t -> bool
(** Read and clear the cancel request (the migration driver's side). *)

val set_recover_handler : t -> (unit -> (unit, string) result) option -> unit
(** Installed by a post-copy migration that parked this (destination)
    VM in the postcopy-paused state; invoking it pulls the remaining
    pages and resumes the guest - the monitor's [migrate_recover]. *)

val recover_handler : t -> (unit -> (unit, string) result) option

val set_migration_stats : t -> string -> unit
(** Rendered summary of the most recent migration involving this VM
    (outcome, rounds, fault counters); shown by [info migrate]. *)

val migration_stats : t -> string option
