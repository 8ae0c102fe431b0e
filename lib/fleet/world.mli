(** Fleet assembly: many {!Host}s on a partitioned engine.

    [run] instantiates [Spec.hosts] member worlds on
    {!Sim.Parallel.run_sharded} (one engine per host, epoch =
    [Spec.fabric_latency]) and folds the per-host ledgers into one
    deterministic report. Every field of {!result} - and therefore
    {!render} - is partition-invariant: the same fleet produces
    byte-identical output for any [?shards]/[?jobs] combination. *)

type result = {
  spec : Spec.t;  (** the validated spec the fleet ran with *)
  reports : Host.report array;  (** indexed by host id *)
  detections : Cloudskulk.Fleet_soc.detection list;
      (** SOC detections in arrival order (host 0's ledger) *)
  audits_sent : int;  (** SOC audit requests mailed out *)
  soc_reports : int;  (** verdict reports the SOC received *)
}

val run : ?jobs:int -> ?shards:int -> Sim.Ctx.t -> Spec.t -> result
(** Run the fleet to [spec.duration].

    @raise Invalid_argument if [Spec.validate] rejects the spec. *)

(** {1 Fleet-wide aggregates} *)

val boots : result -> int
val parked : result -> int
val dropped : result -> int
val emigrations : result -> int
val immigrations : result -> int
(** Test hook: the fleet tests balance it against {!emigrations}. *)

val infected_hosts : result -> int
val detected_hosts : result -> int
val events : result -> int

val conservation : result -> (unit, string) Result.t
(** Fleet-wide churn ledger: every booted VM is alive, killed, dropped
    or parked at the horizon; migration stream hops balance; no host
    ever exceeded its tenant capacity. *)

val render : result -> string
(** Stable multi-line report (summary lines plus a per-host table),
    used by the [fleet] experiment and diffed across shard counts in
    CI. *)
