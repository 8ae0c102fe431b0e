(** Virtual time.

    The simulator measures time in integer nanoseconds. A value of type
    {!t} is either an instant (nanoseconds since simulation start) or a
    duration; the two are deliberately not distinguished at the type level
    because every experiment in this repository starts its clock at zero
    and the arithmetic is the same. *)

type t = int64

val zero : t

val ns : int -> t
(** [ns n] is a duration of [n] nanoseconds. *)

val us : float -> t
(** [us x] is a duration of [x] microseconds, rounded to nanoseconds. *)

val ms : float -> t
(** [ms x] is a duration of [x] milliseconds, rounded to nanoseconds. *)

val s : float -> t
(** [s x] is a duration of [x] seconds, rounded to nanoseconds. *)

val minutes : float -> t

val add : t -> t -> t
val diff : t -> t -> t
(** [diff later earlier] is [later - earlier]. *)

val mul : t -> float -> t
(** [mul d k] scales duration [d] by factor [k], rounding to nanoseconds. *)

val max : t -> t -> t
val min : t -> t -> t
val compare : t -> t -> int
val equal : t -> t -> bool
(** Test hook: tests compare durations with it. *)

val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( > ) : t -> t -> bool

val to_ns : t -> int64
val to_us : t -> float
(** Test hook: tests state expected durations in microseconds. *)

val to_ms : t -> float
(** Test hook: tests state expected durations in milliseconds. *)

val to_s : t -> float

val infinity : t
(** A time later than any reachable simulation instant. *)

val is_infinite : t -> bool

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit (ns/µs/ms/s). *)

val to_string : t -> string
