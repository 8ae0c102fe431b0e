(** Priority queue of timestamped events.

    A binary min-heap keyed by [(time, sequence)]: push and pop are
    O(log n) in the live events, cancel is O(1) and lazy. The sequence
    number breaks ties so that events scheduled for the same instant
    fire in scheduling order, which keeps simulations deterministic. *)

type 'a t

type handle
(** Identifies a scheduled event so it can be cancelled. *)

val create : unit -> 'a t
val size : 'a t -> int
(** Number of live (non-cancelled) events. Test hook: test_event_queue
    checks it against its model queue. *)

val push : 'a t -> Time.t -> 'a -> handle
val cancel : 'a t -> handle -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op. *)

val peek_time : 'a t -> Time.t option
(** Timestamp of the earliest live event. *)

val pop : 'a t -> (Time.t * 'a) option
(** Remove and return the earliest live event. *)
