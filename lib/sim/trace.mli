(** Simulation trace.

    A lightweight in-memory event log. Components append typed records
    ("vm started", "page merged", "migration round", ...); the CLI
    [trace] command prints them, and {!Ctx.quiet} hands out a private
    one so that actions taken through it leave no records here. *)

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
    dropped first once exceeded. Test hook: only test_sim's "capacity
    drops oldest" sets it, to a ring of three. *)

val emitf :
  t -> Time.t -> level -> component:string ->
  ('a, Format.formatter, unit, unit) format4 -> 'a

val records : t -> record list
(** Records in chronological order. *)

val pp_record : Format.formatter -> record -> unit
