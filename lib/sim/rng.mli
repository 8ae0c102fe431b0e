(** Deterministic pseudo-random numbers.

    Every stochastic component of the simulator draws from an explicit
    {!t} so that experiments are reproducible from a single seed. The
    generator is splitmix64, which is fast, has a 64-bit state, and
    supports cheap forking of independent streams ({!split}). *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] advances [t] and returns an independent generator. Used to
    give each simulated component its own stream so that adding draws in
    one component does not perturb another. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val exponential : t -> float -> float
(** [exponential t mean] draws from Exp with the given mean. *)

val lognormal_noise : t -> rsd:float -> float
(** [lognormal_noise t ~rsd] is a multiplicative noise factor with mean
    [1.0] and relative standard deviation approximately [rsd]; used to
    put realistic jitter on modelled costs. [rsd = 0.] gives exactly 1. *)

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)
