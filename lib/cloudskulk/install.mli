(** CloudSkulk installation (paper Sections III and IV-A).

    The four-step attack, run end to end against a host the attacker
    already controls:

    + {e Recon} - recover the target VM's QEMU configuration (Step 1 of
      the paper folds "rent a VM and escape" into the threat model; the
      code starts where the attacker has host root).
    + {e Launch the RITM} - start GuestX, a VM with nested VMX whose
      host port AAAA forwards to its internal port BBBB.
    + {e Nested destination} - start a hypervisor inside GuestX and,
      under it, a destination VM exactly matching the target's
      configuration, paused listening on BBBB.
    + {e Live migration} - drive the target's QEMU monitor to migrate
      to tcp:host:AAAA, landing the victim inside GuestX at L2.

    Followed by clean-up: kill the paused source husk, re-point the
    victim's port-forwards through GuestX, spoof GuestX's PID to the
    old QEMU PID, and impersonate the victim's OS at L1. *)

type config = {
  host_port : int;  (** AAAA (default 5600) *)
  ritm_port : int;  (** BBBB (default 5601) *)
  strategy : Migration.Wiring.strategy;
  use_vtx : bool;  (** hardware-assisted nesting (leaves VMCS traces) *)
  impersonate : bool;  (** run the {!Stealth} OS/file impersonation *)
  faults : Sim.Fault.profile;
      (** fault-injection profile for the live-migration channel
          (default {!Sim.Fault.none}: the exact historical code path).
          Under faults the migration may be [Recovered] - the install
          still succeeds, slower - or aborted, which fails the install
          at the live-migration step and tears the RITM down. *)
}

val default_config : config

type step =
  | Recon
  | Launch_ritm
  | Nested_destination
  | Live_migration
  | Cleanup

val step_name : step -> string

type step_report = {
  step : step;
  started : Sim.Time.t;
  finished : Sim.Time.t;
  detail : string;
}

type report = {
  ritm : Ritm.t;
  steps : step_report list;
  precopy : Migration.Precopy.result option;
  postcopy : Migration.Postcopy.result option;
  migration_outcome : string;
      (** {!Migration.Outcome.describe} of the install's migration:
          "completed" on the fault-free path, recovery counters under
          fault injection *)
  old_pid : Vmm.Process_table.pid;
  new_pid : Vmm.Process_table.pid;
  total_time : Sim.Time.t;  (** recon start to clean-up end *)
}

val run :
  ?config:config ->
  Sim.Ctx.t ->
  host:Vmm.Hypervisor.t ->
  registry:Migration.Registry.t ->
  target_name:string ->
  (report, string) result
(** Execute the full installation. On failure, partial artifacts
    (a launched GuestX, a registered endpoint) are torn down. A
    non-trivial {!Sim.Ctx.faults} profile on the context overrides the
    config's [faults]; the nested hypervisor is built under
    {!Sim.Ctx.quiet} so it leaves no records in the host's trace. *)

val pp_report : Format.formatter -> report -> unit
