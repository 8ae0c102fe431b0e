(** The datacenter's shape, as one validated value.

    Everything a fleet's callers vary lives here: the population (hosts,
    racks, tenants), the infection seeding, the churn rates, the time
    horizon and the cross-host fabric latency (which doubles as the
    sharding epoch - see {!Sim.Parallel.run_sharded}). What every fleet
    shares (tenant memory, chatter rate, ksmd pacing, the detector
    policy, the SOC's audit rotation) is fixed in {!Host}. The harness,
    the fuzzer, and the benchmarks all describe fleets with this one
    record, and {!validate} is the single bounds check they share - the
    fuzz grammar's "reject degenerate fleets" rule is literally this
    function. *)

type t = {
  hosts : int;
  racks : int;  (** addressing/reporting granularity; racks <= hosts *)
  tenants_per_host : int;
      (** initial tenants per host, besides the customer VM *)
  customer_memory_mb : int;
  infection_rate : float;  (** fraction of hosts seeded with CloudSkulk *)
  boot_per_hour : float;  (** per-host Poisson churn rates *)
  kill_per_hour : float;
  migrate_per_hour : float;
  duration : Sim.Time.t;
  fabric_latency : Sim.Time.t;
      (** cross-host delivery quantum; the sharding epoch. Test hook:
          every fleet runs at the default 15 s; only test_fleet's "spec
          validation rejects degenerate fleets" sets it, to a 1 ms epoch
          that {!validate} must reject. *)
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

val rack_of : t -> int -> int
(** Which rack a host index belongs to (contiguous blocks). *)
