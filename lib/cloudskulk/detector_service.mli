(** Operational detection service.

    The paper gives the detection {e mechanism}; this module packages it
    the way a cloud operator would run it, as a continuous monitor over
    a tenant registry ({!start_monitor}). The cheap {!Install_auditor}
    (milliseconds, no tenant involvement) runs every
    [policy.sweep_every]; each audit is a {e sweep}, and the sweep
    cadence is also the scan-window clock. Each tenant's expensive
    {!Dedup_detector} probe (minutes of ksmd waiting, needs the
    tenant-side agent) self-schedules on a jittered rotation interval,
    drawn from the service's {!Sim.Ctx}, so a large fleet's probes
    spread across the window instead of arriving as a thundering herd.
    An audit alarm pulls every tenant's next probe forward to now.

    Probes share a budget per scan window: once [policy.probe_budget]
    probes have run in a window, further probes are deferred to the next
    window and accounted explicitly ({!event.Budget_exhausted},
    {!budget_deferrals}, and the [detector_budget_exhausted_total]
    counter).

    Events land in a bounded ring ({!events}; overflow counted by
    {!events_dropped}), and verdicts/latencies stream into the host's
    telemetry sink as the service runs: [detector_probes_total{verdict}]
    counters plus [detector_probe_latency_ns] and
    [detector_time_to_detect_ns] quantile summaries.

    See examples/soc_monitoring.ml for the inline version of the same
    idea. *)

type policy = {
  sweep_every : Sim.Time.t;
      (** gap between audit sweeps, which is also the scan-window
          length *)
  probe_pages : int;  (** File-A size for routine probes (default 8) *)
  dedup_every_n_sweeps : int;
      (** rotation: each tenant's probe interval is
          [sweep_every * dedup_every_n_sweeps] (default 4); each
          tenant's next probe fires after that interval scaled by a
          uniform factor in [1 +/- 0.2] *)
  probe_budget : int;
      (** maximum dedup probes per scan window; excess probes are
          deferred to the next window (default [max_int]: unbounded) *)
  event_log_capacity : int;
      (** retained events in the ring buffer (default 1024); the oldest
          are dropped first and counted in {!events_dropped} *)
}

val default_policy : policy
(** Test hook: the experiments, the CLI and the fleet spell out every
    field; test_observability and test_extensions derive their policies
    from this one. *)

type tenant_state = {
  tenant : string;
  last_verdict : Dedup_detector.verdict option;
  probes : int;  (** completed (non-failed) probes *)
  registered_at : Sim.Time.t;
  first_detected_at : Sim.Time.t option;
      (** first time a probe returned [Nested_vm_detected] *)
}

type event =
  | Audit_alarm of { sweep : int; findings : Install_auditor.finding list }
  | Verdict_flip of {
      sweep : int;
      tenant : string;
      before : Dedup_detector.verdict option;
      after : Dedup_detector.verdict;
    }
  | Probe_failed of { sweep : int; tenant : string; reason : string }
  | Budget_exhausted of { sweep : int; tenant : string }
      (** the tenant's probe was deferred because the scan window's
          probe budget was already spent *)

val event_to_string : event -> string

type t

val create : ?policy:policy -> Sim.Ctx.t -> Vmm.Hypervisor.t -> t

val register_tenant :
  t -> name:string -> env:(unit -> Dedup_detector.environment) -> unit
(** [env] is re-evaluated at each probe, so it can track a tenant whose
    OS moves (e.g. into a nested VM). Registering an existing name
    replaces its environment but keeps its history. Once the monitor
    runs, a newly registered tenant's first probe is spread uniformly
    over one rotation interval. *)

val start_monitor : t -> unit
(** Start monitoring: periodic audits every [sweep_every] plus jittered
    self-scheduling per-tenant probes, until {!stop}. Each tenant's
    first probe is spread uniformly over one rotation interval. A no-op
    while the monitor runs. *)

val pull_probes_forward : t -> unit
(** Schedule every registered tenant's next monitor probe at the
    current instant - what a remote SOC audit request does when it
    reaches this host ({!Fleet_soc}). The scan-window budget still
    applies, so remote audits cannot stampede the host. No-op unless
    the monitor runs. *)

val set_event_hook : t -> (event -> unit) option -> unit
(** Stream every event to [hook] as it is emitted (in addition to the
    retained ring). The fleet layer uses this to forward verdict flips
    to a datacenter SOC through shard mailboxes; the hook runs on the
    host's own domain, so it must only touch host-local state. *)

val stop : t -> unit
val sweeps_run : t -> int

val events : t -> event list
(** Retained events, oldest first — at most [event_log_capacity] of
    them (see {!events_dropped}). *)

val events_dropped : t -> int
(** Events pushed out of the ring by overflow. *)

val budget_deferrals : t -> int
(** Total probes deferred by the per-window budget. *)

val tenant_state : t -> string -> tenant_state option

val time_to_detect : t -> string -> Sim.Time.t option
(** Time from the tenant's registration to its first
    [Nested_vm_detected] verdict; [None] until then. *)

val compromised_tenants : t -> string list
(** Tenants whose last verdict was {!Dedup_detector.Nested_vm_detected}. *)
