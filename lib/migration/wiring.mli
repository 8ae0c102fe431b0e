(** Glue between the QEMU monitor and the migration engine.

    Installs a handler so that the monitor command [migrate
    tcp:host:port] on a source VM resolves the endpoint through a
    {!Registry} and runs a pre-copy (or post-copy) migration - the same
    division of labour as QEMU's monitor and migration thread. *)

type strategy =
  | Pre_copy of Precopy.config
  | Post_copy of Postcopy.config

type t
(** A live wiring between one source VM's monitor and the migration
    engine. The handle owns the outcome of the wiring's most recent
    migration; keeping it here (rather than in any module-level map)
    means concurrent trial domains can never observe each other's
    migrations. *)

val wire_monitor :
  ?strategy:strategy ->
  ?fault:Sim.Fault.t ->
  Sim.Ctx.t ->
  registry:Registry.t ->
  source:Vmm.Vm.t ->
  unit ->
  t
(** After this, [Monitor.execute source "migrate tcp:H:P"] performs the
    migration. Default strategy: pre-copy with {!Precopy.default_config};
    [?fault] is threaded through to the chosen driver. The registry
    entry for the destination is removed once the destination has taken
    over the guest ([Completed], [Recovered], or postcopy-paused).

    The handler reports an aborted migration as [Error] to the monitor
    (QEMU prints "migration failed"), and records a rendered summary -
    outcome, rounds, fault counters - on the source VM via
    {!Vmm.Vm.set_migration_stats} so [info migrate] can show it. A
    postcopy-paused destination gets its own status line, and its
    [migrate_recover] closure is wrapped to refresh it on success. *)

type outcome =
  | Pre_copied of Precopy.result Outcome.t
  | Post_copied of Postcopy.result Outcome.t  (** one constructor per driver *)

val last_result : t -> outcome option
(** Outcome of the most recent migration performed through this wiring,
    if any, tagged with the driver that ran it. *)
