(** Pre-copy live migration.

    The algorithm of Clark et al. that QEMU implements and the paper's
    attack rides on: iteratively copy RAM while the source keeps
    running, re-sending pages the guest dirties, until the remaining
    dirty set is small enough to move within the downtime budget (or a
    round cap is hit); then pause the source, transfer the rest, and
    start the destination.

    The driver is {e blocking on virtual time}: it advances the engine
    while rounds are in flight, so workloads keep executing - and keep
    dirtying pages - during the migration, which is what produces the
    workload-dependent end-to-end times of Fig 4. *)

type config = {
  max_downtime : Sim.Time.t;  (** stop-and-copy budget (QEMU default 300 ms) *)
  max_rounds : int;  (** cap on iterative rounds before forcing convergence *)
  zero_page_optimization : bool;
      (** send only headers for all-zero pages (QEMU does; off by
          default here because the effective-bandwidth calibration
          already folds it in - see DESIGN.md) *)
  auto_converge : bool;
      (** QEMU's auto-converge: when rounds stop shrinking, throttle the
          source's vCPU (20 %, then +10 % per further round, up to 99 %)
          until the dirty rate fits the downtime budget. Off by default -
          for CloudSkulk's attacker it is a stealth trade-off: the
          migration finishes, but the victim feels the brake *)
  xbzrle : bool;
      (** QEMU's XBZRLE delta compression: a page re-sent in a later
          round (its content changed, but the destination holds the
          previous version) goes on the wire as a delta of 30 % of a
          page. Off by default. *)
  max_retransmits : int;
      (** severed transmissions are retried this many times before the
          migration aborts with [Channel_down] (default 5); the backoff
          between retries starts at 100 ms and doubles per retry *)
}

val default_config : config
(** 300 ms downtime, 50 rounds, zero-page optimization off. The
    channel is {!Net.Link.migration_loopback} with 8-byte page headers,
    derated to 82 % per destination nesting level beyond L1. The
    experiments vary only [auto_converge] and [xbzrle]. Test hook: only
    test_migration sets [max_downtime] (2 ms, so a busy guest needs
    extra rounds), [max_rounds] (the auto-converge tests),
    [zero_page_optimization] ("zero page optimization shrinks idle
    transfer") and [max_retransmits] ("precopy aborts when the channel
    stays down"). *)

type round_stat = {
  round : int;  (** 1-based *)
  pages_sent : int;
  bytes_sent : int;
  duration : Sim.Time.t;
  dirtied_during : int;  (** pages dirtied while this round was on the wire *)
}

type result = {
  rounds : round_stat list;
  total_pages_sent : int;
  total_bytes_sent : int;
  downtime : Sim.Time.t;  (** source paused to destination running *)
  total_time : Sim.Time.t;  (** end-to-end, the paper's Fig 4 metric *)
  converged : bool;  (** false when the round cap forced the stop *)
  max_throttle : float;  (** strongest auto-converge brake applied (0 if off) *)
}

val migrate :
  ?config:config ->
  ?fault:Sim.Fault.t ->
  Sim.Ctx.t ->
  source:Vmm.Vm.t ->
  dest:Vmm.Vm.t ->
  unit ->
  (result Outcome.t, string) Stdlib.result
(** Run a migration. [Error] is reserved for precondition failures
    (source not running/paused, destination not [Incoming],
    incompatible configurations, RAM size mismatch) and has no side
    effects. Otherwise the QEMU-style outcome is reported through
    {!Outcome.t}:

    - [Completed r]: the fault-free path. The source is left [Paused]
      (the post-migrated husk the attacker must clean up) and the
      destination [Running] with the source's RAM contents and OS
      identity.
    - [Recovered (r, recovery)]: same final states, but [?fault]
      injected retransmissions and/or outages along the way; [recovery]
      counts them.
    - [Aborted _]: the channel stayed down past [max_retransmits], or
      [migrate_cancel] was honoured at a round
      boundary. The destination remains parked in [Incoming]; the
      source is resumed iff this driver paused it (QEMU's
      source-resume-on-abort).

    Without [?fault] the driver takes the exact historical code path -
    identical virtual-time advancement and RNG usage - so zero-fault
    runs are byte-identical to pre-fault builds. *)
