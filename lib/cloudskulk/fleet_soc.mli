(** Datacenter-level SOC aggregation over per-host detector services.

    One {!Detector_service} per host watches its own tenants; the fleet
    pins one [Fleet_soc.t] to host 0, where verdict reports forwarded
    through shard mailboxes accumulate. The SOC also owns the fleet
    audit rotation - a deterministic round-robin over hosts, so which
    host is audited next depends only on how many audits were sent, not
    on timing or partitioning. Engine-free by design: the owning host
    schedules ticks and posts mail; this module accumulates and
    decides. *)

type detection = {
  det_host : int;  (** origin host index *)
  det_tenant : string;
  det_at : Sim.Time.t;  (** fleet clock when the report reached the SOC *)
  det_ttd : Sim.Time.t;  (** registration-to-detection on the origin host *)
  det_probes : int;  (** dedup probes the origin host spent on the tenant *)
}

type t

val create : unit -> t

val note : t -> detection -> unit
(** Record a forwarded verdict report. The first report per
    (host, tenant) wins; later flips count as reports but not as new
    detections. *)

val detections : t -> detection list
(** Unique detections in arrival order - deterministic because the
    shard runner's delivery order is (see {!Sim.Parallel.run_sharded}). *)

val reports_received : t -> int

val next_audit_target : t -> hosts:int -> int option
(** Advance the audit rotation and return the host to audit next
    ([None] for an empty fleet). *)

val audits_sent : t -> int
