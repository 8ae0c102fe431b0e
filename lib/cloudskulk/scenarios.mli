(** End-to-end evaluation scenarios.

    The paper's detection evaluation (Section VI-C) runs the protocol in
    two worlds: scenario 1, a clean host where the customer's VM really
    is the L1 guest the administrator sees; and scenario 2, a host where
    CloudSkulk has been installed and the "guest" the administrator sees
    is the attacker's GuestX with the real customer at L2. This module
    builds both, with the detector's web-interface callbacks wired to
    the right VMs. *)

type t = {
  ctx : Sim.Ctx.t;  (** the scenario's (forked) context *)
  host : Vmm.Hypervisor.t;
  registry : Migration.Registry.t;
  customer_vm : Vmm.Vm.t;  (** where the customer's agent actually runs *)
  ritm : Ritm.t option;  (** present when CloudSkulk is installed *)
  install_report : Install.report option;
  detector_env : Dedup_detector.environment;
  description : string;
}

type install_failure =
  | Launch_failed of string  (** the customer VM itself never came up *)
  | Install_failed of string
      (** the CloudSkulk installation aborted (e.g. its live migration
          died under an aggressive fault profile) and was torn down *)

val install_failure_to_string : install_failure -> string

val clean : ?ksm_config:Memory.Ksm.config -> ?customer_memory_mb:int -> Sim.Ctx.t -> t
(** Scenario 1: a host running the customer's VM (guest0) at L1. The
    context is the scenario's instrumentation root, {!Sim.Ctx.fork}ed
    so the scenario plays out in a fresh world replayed from its seed;
    its telemetry sink is threaded through the uplink switch and the L0
    hypervisor (and from there into KSM, VMs, migrations and the
    detector). [customer_memory_mb] (default 1024, the paper's guest)
    sizes the customer VM - the fuzzer runs smaller guests to afford
    many scenarios per budget. *)

val infected_result :
  ?ksm_config:Memory.Ksm.config ->
  ?customer_memory_mb:int ->
  ?attacker_syncs_changes:bool ->
  ?install_config:Install.config ->
  Sim.Ctx.t ->
  (t, install_failure) result
(** Scenario 2: the same host after a CloudSkulk installation. The
    detector's file delivery reaches the customer's agent (now at L2);
    the attacker, watching the delivery cross the RITM, mirrors the file
    into GuestX to keep impersonating. [attacker_syncs_changes] (default
    false) models the evasion of Section VI-D: the attacker also
    propagates the customer's page changes into the mirror. The
    context's {!Sim.Ctx.faults} profile injects channel faults into the
    install's live migration; a non-trivial profile overrides the one in
    [install_config]. An installation that fails - impossible in the
    default topology, but an ordinary outcome under an aggressive fault
    profile - is returned as [Error]: partial artifacts are already torn
    down and the host keeps running the (un-hijacked) customer VM. *)

val infected :
  ?ksm_config:Memory.Ksm.config ->
  ?customer_memory_mb:int ->
  ?attacker_syncs_changes:bool ->
  ?install_config:Install.config ->
  Sim.Ctx.t ->
  t
(** {!infected_result}, raising [Invalid_argument] on failure - the
    historical surface, fine wherever the fault profile cannot abort the
    install. Fuzz drivers and chaos tests use {!infected_result}. *)
