(** The datacenter's shape, as one validated value.

    Everything that changes what a fleet simulates lives here: the
    population (hosts, racks, tenants), the infection seeding, the
    churn and chatter rates, the time horizon, the cross-host fabric
    latency (which doubles as the sharding epoch - see
    {!Sim.Parallel.run_sharded}), the per-host ksmd pacing, and the
    detector / SOC policy knobs. The harness, the fuzzer, and the
    benchmarks all describe fleets with this one record, and {!validate}
    is the single bounds check they share - the fuzz grammar's "reject
    degenerate fleets" rule is literally this function. *)

type t = {
  hosts : int;
  racks : int;  (** addressing/reporting granularity; racks <= hosts *)
  tenants_per_host : int;
      (** initial tenants per host, besides the customer VM *)
  tenant_memory_mb : int;
  customer_memory_mb : int;
  infection_rate : float;  (** fraction of hosts seeded with CloudSkulk *)
  boot_per_hour : float;  (** per-host Poisson churn rates *)
  kill_per_hour : float;
  migrate_per_hour : float;
  chatter_per_hour : float;  (** cross-host packets per host *)
  duration : Sim.Time.t;
  fabric_latency : Sim.Time.t;
      (** cross-host delivery quantum; the sharding epoch *)
  ksm_pages_to_scan : int;
  ksm_sleep : Sim.Time.t;
  sweep_every : Sim.Time.t;  (** per-host detector audit cadence *)
  dedup_every_n_sweeps : int;
  probe_pages : int;
  probe_budget : int;
  soc_audit_every : Sim.Time.t;  (** fleet SOC rotation; zero disables *)
}

val default : t
(** 4 hosts x (3 tenants + 1 customer) over 2 racks, 25% infected,
    gentle churn, a 60-minute horizon, and a 15-second fabric. *)

val vms : t -> int
(** Total VMs at boot: [hosts * (tenants_per_host + 1)]. *)

val epoch : t -> Sim.Time.t
(** The sharding epoch: [fabric_latency]. *)

val capacity : t -> int
(** Per-host tenant cap: [2 * tenants_per_host + 2]. Churn and
    immigration may grow a host past its initial population, never past
    this - the conservation test's second clause. *)

val validate : t -> (t, string) result
(** Bounds-check every knob (host/tenant counts, rates, horizons, the
    epoch-count product) and reject degenerate fleets with a one-line
    reason. *)

val ksm_config : t -> Memory.Ksm.config
(** Per-host ksmd pacing: incremental rescans at the spec's batch and
    sleep. *)

val detector_policy : t -> Cloudskulk.Detector_service.policy

val rack_of : t -> int -> int
(** Which rack a host index belongs to (contiguous blocks). *)
