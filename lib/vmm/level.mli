(** Virtualization levels, in the Turtles-project notation the paper
    follows: L0 is the hypervisor on real hardware, L1 a hypervisor
    running as L0's guest, L2 a guest of L1, and so on. *)

type t = int
(** Depth: 0 = bare metal, 1 = ordinary guest, 2 = nested guest, ... *)

val l0 : t
val l1 : t
val l2 : t

val deeper : t -> t
(** The level of a guest hosted at this level. *)

val is_nested : t -> bool
(** True for L2 and deeper. *)

val of_int : int -> t
(** Raises [Invalid_argument] on negative depth. Test hook: tests build
    levels deeper than L2 and check that a negative depth is rejected. *)

val to_int : t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
