(** Binary-heap event queue (reference implementation).

    This is the original [(time, sequence)]-keyed binary min-heap that
    {!Sim.Event_queue} replaced with a hierarchical timing wheel. It is kept
    for differential testing (the wheel must produce identical observable
    traces) and for the throughput benchmarks that document the win. The
    interface mirrors {!Sim.Event_queue} exactly. *)

type 'a t

type handle
(** Identifies a scheduled event so it can be cancelled. *)

val create : unit -> 'a t
val is_empty : 'a t -> bool

val size : 'a t -> int
(** Number of live (non-cancelled) events. *)

val push : 'a t -> Sim.Time.t -> 'a -> handle

val cancel : 'a t -> handle -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op. *)

val cancelled : 'a t -> handle -> bool
(** [cancelled t h] is [true] once [h] is no longer pending, whether it
    fired or was cancelled. *)

val peek_time : 'a t -> Sim.Time.t option
(** Timestamp of the earliest live event. *)

val pop : 'a t -> (Sim.Time.t * 'a) option
(** Remove and return the earliest live event. *)
