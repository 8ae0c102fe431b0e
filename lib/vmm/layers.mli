(** Standard experiment topologies.

    The paper evaluates every workload in three execution environments -
    L0 (bare host), L1 (guest), and L2 (nested guest) - and the
    CloudSkulk attack turns a victim's L1 into an L2. This module builds
    those topologies so benchmarks and tests do not repeat the plumbing.

    Every builder {!Sim.Ctx.fork}s the context it is given: the topology
    lives in a fresh world replayed from the context's seed (and the
    returned [env] carries that forked context), so building several
    topologies from one context gives each one an identical, independent
    schedule. *)

type env = {
  ctx : Sim.Ctx.t;  (** the topology's (forked) context *)
  uplink : Net.Fabric.switch;  (** the world outside the host *)
  host : Hypervisor.t;  (** the L0 hypervisor *)
  exec_level : Level.t;  (** where measured code runs *)
  exec_ram : Memory.Address_space.t;  (** the memory that code dirties *)
  exec_vm : Vm.t option;  (** the VM it runs in ([None] at L0) *)
  guestx : Vm.t option;  (** the enclosing L1 VM when nested *)
  nested_hv : Hypervisor.t option;  (** GuestX's hypervisor when nested *)
}

val bare_metal : ?ksm_config:Memory.Ksm.config -> ?workspace_mb:int -> Sim.Ctx.t -> env
(** L0: a host with a [workspace_mb] (default 1024) buffer the measured
    code runs in. In all constructors here, the context is the
    topology's instrumentation root (threaded into the uplink switch and
    every hypervisor). Test hook: experiments reach it through {!of_level};
    tests build the level directly. [ksm_config] and [workspace_mb] are
    test hooks too: test_vmm's "bare_metal runs at L0" passes a fast
    ksmd and an 8 MB workspace. *)

val single_guest : ?ksm_config:Memory.Ksm.config -> ?config:Qemu_config.t -> Sim.Ctx.t -> env
(** L1: a host plus one running guest (default config: the paper's 1 GB
    VM, SSH forwarded from host port 2222). Test hook: experiments reach it
    through {!of_level}; tests build the level directly. [ksm_config] and
    [config] are test hooks too: test_vmm's "single_guest runs at L1"
    passes a fast ksmd and an 8 MB guest. *)

val nested_guest :
  ?ksm_config:Memory.Ksm.config ->
  ?guestx_memory_mb:int ->
  ?config:Qemu_config.t ->
  Sim.Ctx.t ->
  env
(** L2: a host, a [guestx_memory_mb] (default 2048) L1 VM with nested
    VMX, a hypervisor inside it, and a nested guest (default: the same
    1 GB config as {!single_guest}) running at L2. Test hook: experiments
    reach it through {!of_level}; tests build the level directly.
    [ksm_config], [guestx_memory_mb] and [config] are test hooks too:
    test_vmm's "nested_guest runs at L2" passes a fast ksmd, a 64 MB
    GuestX and an 8 MB guest. *)

val of_level : Sim.Ctx.t -> Level.t -> env
(** Dispatch on 0, 1 or 2; raises [Invalid_argument] on deeper levels. *)

type migration_pair = {
  mp_ctx : Sim.Ctx.t;  (** the pair's (forked) context *)
  mp_host : Hypervisor.t;
  mp_source : Vm.t;  (** running L1 guest, the migration source *)
  mp_dest : Vm.t;  (** incoming-state destination *)
  mp_guestx : Vm.t option;  (** the enclosing VM when the destination is nested *)
  mp_nested_hv : Hypervisor.t option;
}

val migration_pair :
  ?ksm_config:Memory.Ksm.config ->
  ?config:Qemu_config.t ->
  nested_dest:bool ->
  Sim.Ctx.t ->
  migration_pair
(** The Fig 4 topology: a source VM at L1 and a matching destination
    paused in the incoming state on port 5601 - either another L1 VM on
    the same host (the paper's "L0-L0" series) or a VM nested inside a
    GuestX (the "L0-L1" series, CloudSkulk's move). [ksm_config] and
    [config] (default: the paper's 1 GB guest) are set by the fuzzer's
    side migrations, which need a small, fast world, and by the
    migration and chaos tests. *)
