(** Priority queue of timestamped events.

    A hierarchical timing wheel (5 levels x 256 slots over 64 ns ticks,
    plus an overflow list for events beyond ~19.5 simulated hours):
    schedule, expire and cancel are O(1) amortised for the near-horizon
    events that dominate a simulation. Events are delivered ordered by
    [(time, sequence)]; the sequence number breaks ties so that events
    scheduled for the same instant fire in scheduling order, which keeps
    simulations deterministic. The observable behaviour is identical to
    the binary-heap reference implementation kept in bench/event_heap/. *)

type 'a t

type handle
(** Identifies a scheduled event so it can be cancelled. *)

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int
(** Number of live (non-cancelled) events. *)

val push : 'a t -> Time.t -> 'a -> handle
val cancel : 'a t -> handle -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op. *)

val cancelled : 'a t -> handle -> bool
(** [cancelled t h] is [true] once [h] is no longer pending, whether it
    fired or was cancelled. *)

val peek_time : 'a t -> Time.t option
(** Timestamp of the earliest live event. *)

val pop : 'a t -> (Time.t * 'a) option
(** Remove and return the earliest live event. *)
