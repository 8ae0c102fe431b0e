(** One datacenter host: a {!Cloudskulk.Scenarios} world plus the fleet
    dressing.

    A host is a full L0 with its customer VM (infected with probability
    [Spec.infection_rate], always without VT-x so detection must come
    from dedup probes), a population of tenant VMs sharing a per-host
    base image (multi-tenant KSM pressure), Poisson churn
    (boot/kill/migrate), east-west chatter, a continuous
    {!Cloudskulk.Detector_service}, and - on host 0 - the fleet
    {!Cloudskulk.Fleet_soc}.

    A host owns exactly one engine and talks to the rest of the fleet
    only through its outgoing queue, drained through the shard runner's
    [post] by {!step}: its entire history is a pure function of
    [(fleet seed, host id)], which is what makes the fleet
    partition-invariant under {!Sim.Parallel.run_sharded}. *)

type t

val detector_policy : Cloudskulk.Detector_service.policy
(** The policy every host's detector runs: an audit sweep every 10
    minutes, each tenant probed with 8 pages every second sweep, one
    probe per scan window, a 64-event log. *)

val create : Sim.Ctx.t -> Spec.t -> id:int -> t
(** Build the host's world in full: scenario (clean or infected by the
    member ctx's first coin), initial tenants, detector monitor, churn
    and chatter schedules, uplink default route, and (host 0) the SOC
    audit rotation. *)

val deliver : t -> now:Sim.Time.t -> src:int -> Message.t list -> unit
(** Mailbox arrivals: resume (or forward) migration streams, re-inject
    chatter on the local wire, honour audit requests, and (host 0)
    record verdict reports in the SOC. *)

val step : t -> until:Sim.Time.t -> post:(dst:int -> Message.t -> unit) -> unit
(** Advance the host's engine to the barrier clock, then drain the
    outgoing queue through [post]. *)

type report = {
  r_host : int;
  r_rack : int;
  r_infected : bool;
  r_install_failed : bool;  (** infection coin hit but install aborted *)
  r_boots : int;  (** initial population + churn boots *)
  r_boot_failures : int;
  r_kills : int;
  r_emigrations : int;
  r_immigrations : int;
  r_refusals : int;  (** arrivals forwarded onward for capacity *)
  r_dropped_streams : int;  (** nowhere to forward (single-host fleet) *)
  r_parked : int;  (** streams still in the outgoing queue at horizon *)
  r_alive : int;  (** tenants alive at the horizon *)
  r_max_tenants : int;
  r_capacity : int;
  r_chatter_sent : int;
  r_chatter_received : int;
  r_audits_received : int;
  r_detected : bool;
  r_ttd : Sim.Time.t option;
  r_probes : int;
  r_events : int;  (** engine events this host processed *)
}

val report : t -> report

val soc : t -> Cloudskulk.Fleet_soc.t option
(** The fleet SOC - [Some] only on host 0. *)
