(** Post-copy live migration.

    The alternative strategy the paper notes cloud vendors may use
    (Section II-A): pause the source almost immediately, ship the device
    state and a minimal working set, resume the guest at the
    destination, and pull the remaining pages in the background (with
    demand faults for pages the guest touches first: 2 % of them, one
    network round-trip each). CloudSkulk works over either strategy; the
    [abl-postcopy] bench compares install times under both. *)

type config = {
  working_set_pages : int;  (** pages pushed before the destination resumes *)
  max_retransmits : int;
      (** phase-1 (working-set push) retransmission allowance before the
          migration aborts with [Channel_down] (default 5) *)
  auto_recover : bool;
      (** when an outage severs the background pull (at a boundary of
          its 256-page chunks): [true] (default)
          waits it out and resumes the pull itself ([Recovered]);
          [false] reproduces QEMU's manual flow - the destination guest
          stays paused in postcopy-paused and a [migrate_recover]
          handler is installed on it ({!Vmm.Vm.set_recover_handler}) *)
}

val default_config : config
(** A 2048-page working set, 5 retransmissions, auto-recover on, over
    pre-copy's channel ({!Net.Link.migration_loopback}, 8-byte page
    headers, 82 % bandwidth per destination nesting level beyond L1).
    Test hook: every run outside the tests takes it as it is; only the
    tests set [working_set_pages] and [auto_recover] (test_migration's
    "postcopy pause and monitor recovery" and test_chaos's migration
    properties) and [max_retransmits] ("postcopy aborts when the
    working-set push stays down"). *)

type result = {
  downtime : Sim.Time.t;
  resume_time : Sim.Time.t;  (** source pause to destination running *)
  background_time : Sim.Time.t;  (** resume to last page transferred *)
  total_time : Sim.Time.t;
  demand_faults : int;
  total_pages_sent : int;
}

val migrate :
  ?config:config ->
  ?fault:Sim.Fault.t ->
  Sim.Ctx.t ->
  source:Vmm.Vm.t ->
  dest:Vmm.Vm.t ->
  unit ->
  (result Outcome.t, string) Stdlib.result
(** Same preconditions as {!Precopy.migrate}, checked by the same code,
    so the [Error] text is the same as pre-copy's; [Error] is reserved
    for precondition failures and has no side effects.

    Failure semantics differ by phase. A channel failure during the
    phase-1 working-set push (the destination has not resumed yet)
    aborts like pre-copy: source resumed, destination left [Incoming].
    An outage during the phase-2 background pull happens {e after} the
    handover - the destination guest stalls on its missing pages; with
    [auto_recover] the driver waits out the outage and finishes
    ([Recovered]), otherwise it returns [Aborted Postcopy_paused] with
    the destination [Paused] and a recover closure installed for the
    monitor's [migrate_recover]. Invoking the closure resumes the guest
    and pulls the remaining pages (exactly once each - no page is lost
    or duplicated across the pause).

    Without [?fault] the driver takes the exact historical code path. *)
