(** Memory-write timing model.

    Calibrated against the measurements the detection approach relies on
    (paper Section VI and its refs [41], [42]): writing to a KSM-merged
    page triggers a copy-on-write fault costing several microseconds,
    while writing to a private page costs a few hundred nanoseconds. *)

type t = {
  private_write : Sim.Time.t;  (** mean cost of a normal page write *)
  cow_break : Sim.Time.t;  (** mean cost of a write that breaks a merged page *)
  noise_rsd : float;  (** relative stddev of multiplicative jitter *)
}

val default : t
(** 400 ns private, 5.5 µs CoW break, 8 % jitter. *)

val write_cost : t -> Sim.Rng.t -> Address_space.write_kind -> Sim.Time.t
(** Sampled cost of one write of the given kind. *)
