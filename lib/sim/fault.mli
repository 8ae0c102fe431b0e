(** Deterministic fault injection.

    A {!t} is a seeded source of channel faults - packet loss, jitter,
    bandwidth degradation, and link outages - that the network and
    migration layers consult while moving bytes. All draws come from a
    private {!Rng.t} handed over at creation, so a trial's fault
    schedule is a pure function of its seed: re-running the same
    scenario (at any [--jobs] level) replays byte-identical faults, the
    property the chaos suite and the parallel determinism tests lean
    on. A component given no injector (or the {!none} profile) must
    behave exactly as before this module existed - zero-fault runs stay
    bit-for-bit reproductions of the fault-free simulator. *)

(** {2 Profiles} *)

type profile = {
  loss : float;
      (** per-chunk drop probability in [\[0, 1)]; lost chunks are
          retransmitted after an RTO stall, so loss costs time, never
          data *)
  jitter_rsd : float;
      (** relative standard deviation of the multiplicative lognormal
          noise on each transmission's serialisation time (0 = none) *)
  degradation : float;
      (** bandwidth factor in [(0, 1]] applied while the link is
          degraded (1 = full speed) *)
  degradation_duty : float;
      (** probability in [\[0, 1]] that any given transmission sees the
          degraded bandwidth *)
  mtbf : Time.t option;
      (** mean time between link failures (exponential arrivals);
          [None] = the link never goes down *)
  mttr : Time.t;  (** mean repair time of a link-down event *)
}

val none : profile
(** The identity profile: no loss, no jitter, no degradation, no
    outages. An injector carrying it never draws from its RNG. *)

val lossy : profile
(** 1 % chunk loss + 10 % jitter - a congested but live channel. The
    chaos acceptance profile. *)

val degraded : profile
(** Half of all transmissions run at 40 % bandwidth (a throttled or
    oversubscribed migration channel) with mild jitter. *)

val flaky : profile
(** {!lossy} plus link-down events: mean 20 s between failures, mean
    2 s repair - enough to interrupt a long migration mid-flight. *)

val profile_of_string : string -> (profile, string) result
(** Looks up a named profile for CLI flags: none/lossy/degraded/flaky,
    in any case. *)

val profile_name : profile -> string
(** The registered name, or ["custom"]. *)

val is_none : profile -> bool
(** Structural equality with {!none}: such a profile injects nothing. *)

(** {2 Injectors} *)

type t

val create : ?telemetry:Telemetry.t -> profile -> Rng.t -> t
(** [create p rng] owns [rng]. Raises [Invalid_argument] when a field
    of [p] is out of its documented range. Callers wanting zero perturbation of existing
    RNG streams should only fork an [rng] for this when
    [not (is_none p)]. [telemetry] registers
    [fault_injected_total{kind=...}] (kinds [chunk_drop], [outage],
    [degraded]) and [fault_link_downtime_ns_total]; recording never
    draws from [rng]. *)

(** {2 Per-chunk queries (used by {!Net.Flow})} *)

val drops_chunk : t -> bool
(** Draw: is this chunk lost? Counts into
    [fault_injected_total{kind="chunk_drop"}] when true. Never draws
    under the {!none} profile. *)

val chunk_jitter : t -> float
(** Draw: multiplicative serialisation factor for one chunk - lognormal
    jitter times the degradation factor when the degradation duty
    fires. Returns exactly [1.0] (without drawing) under {!none}. *)

(** {2 Per-transmission queries (used by migration rounds)} *)

val transmission_factor : t -> float
(** Draw: multiplicative time factor for a whole transmission - jitter,
    degradation, and the goodput overhead of retransmitting lost chunks
    ([1 / (1 - loss)]). Returns exactly [1.0] (without drawing) under
    {!none}. *)

val cut : t -> now:Time.t -> during:Time.t -> (Time.t * Time.t) option
(** [cut t ~now ~during] asks whether the link fails while a
    transmission occupies [\[now, now + during)]. [Some (after, outage)]
    means the link dies [after] into the transmission and stays down
    for [outage]; the failure clock then re-arms after the repair.
    [None] (always, under a profile without [mtbf]) means the
    transmission passes undisturbed. Failure arrivals are sampled
    lazily against the virtual clock, so two runs issuing the same
    transmissions at the same times see the same cuts. *)
