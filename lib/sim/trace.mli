(** Simulation trace.

    A lightweight in-memory event log. Components append typed records
    ("vm started", "page merged", "migration round", ...); tests and the
    CLI read them back to assert causal behaviour without timing. *)

type level = Debug | Info | Warn

type record = {
  time : Time.t;
  level : level;
  component : string;
  message : string;
}

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 65536) bounds retained records; older records are
    dropped first once exceeded. *)

val emit : t -> Time.t -> level -> component:string -> string -> unit

val emitf :
  t -> Time.t -> level -> component:string ->
  ('a, Format.formatter, unit, unit) format4 -> 'a

val records : t -> record list
(** Records in chronological order. *)

val find : t -> component:string -> record list
(** Records of one component, in chronological order; streams over the
    buffer without materialising the full record list. *)

val contains : t -> component:string -> substring:string -> bool
(** Whether any record of [component] mentions [substring]; streams and
    short-circuits on the first match. An empty [substring] matches any
    record of the component. *)

val count : t -> int

val dropped : t -> int
(** Records evicted by the capacity bound since creation (or since the
    last {!clear}). *)

val clear : t -> unit
(** Empties the buffer and resets the {!dropped} counter. *)

val pp_record : Format.formatter -> record -> unit
