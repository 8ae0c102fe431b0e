(** Discrete-event simulation engine.

    An engine owns a virtual clock and an event queue. Simulated
    components schedule callbacks; {!run} drives the clock forward from
    event to event. All the substrates in this repository (memory, net,
    vmm, migration, workload) hang off one engine per experiment. *)

type t

type event_handle

val create : ?seed:int -> unit -> t
(** [create ?seed ()] is a fresh engine with its clock at {!Time.zero}.
    [seed] (default 42) seeds the engine's root {!Rng.t}. *)

val now : t -> Time.t
val fork_rng : t -> Rng.t
(** An independent random stream derived from the engine's root stream. *)

val schedule_at : t -> Time.t -> (unit -> unit) -> event_handle
(** [schedule_at t when_ f] runs [f] when the clock reaches [when_].
    Scheduling in the past raises [Invalid_argument]. Test hook:
    {!schedule_after} and {!periodic} build on it; tests schedule at
    absolute times. *)

val schedule_after : t -> Time.t -> (unit -> unit) -> event_handle
(** [schedule_after t delay f] is [schedule_at t (now t + delay)]. *)

val cancel : t -> event_handle -> unit

val periodic : t -> every:Time.t -> (unit -> bool) -> unit
(** [periodic t ~every f] runs [f] every [every] starting at
    [now + every]; it stops when [f] returns [false]. *)

val run : ?until:Time.t -> t -> Time.t
(** Process events in timestamp order until the queue is empty or the
    next event is later than [until]. Returns the final clock value. If
    stopped by [until], the clock is advanced to exactly [until]. *)

val step : t -> bool
(** Process a single event; [false] if the queue was empty. *)

val run_for : t -> Time.t -> Time.t
(** [run_for t d] is [run ~until:(now t + d) t]. *)

exception Simulation_deadlock of string

val events_processed : t -> int
