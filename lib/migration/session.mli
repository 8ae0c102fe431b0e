(** One migration in flight: what {!Precopy.migrate} and
    {!Postcopy.migrate} share around their own phases.

    A session owns the preconditions, the derated channel, the faulted
    transmit (retries and backoff), the per-driver
    [migration_*] telemetry and the outcome accounting: a run with no
    outage and no retransmission is [Completed], any other finish is
    [Recovered], and an abort resumes the source the session paused
    unless the destination already owns the guest ([Postcopy_paused]).
    Internal to the migration library. *)

type t

exception Abort of Outcome.reason
(** Raised by {!transmit} and by a driver's own phase logic; the driver
    catches it and returns {!abort}. *)

val page_header_bytes : int
(** Per-page framing on the wire: 8 bytes. *)

val start :
  ?fault:Sim.Fault.t ->
  Sim.Ctx.t ->
  driver:string ->
  max_retransmits:int ->
  source:Vmm.Vm.t ->
  dest:Vmm.Vm.t ->
  (t, string) result
(** Check the preconditions (source running or paused, destination
    [Incoming], compatible configurations, equal RAM sizes) and open the
    session. [Error] names the VM or the page counts and has no side
    effects. [driver] labels every metric and span. *)

val link : t -> Net.Link.t
(** The channel, {!Net.Link.migration_loopback}, its bandwidth derated
    to 82 % once per destination nesting level beyond L1 (receiving into
    a nested VM's RAM costs extra exits). *)

val counter : t -> string -> Sim.Telemetry.counter
(** A driver-specific [migration_<name>] counter with the driver label. *)

val transmit : ?backoff:Sim.Time.t -> t -> round:int -> Sim.Time.t -> unit
(** Put this much transfer time on the wire, advancing the engine.
    Without a fault injector it is exactly [run_for]. With one, a
    severed transmission waits out the outage and is retried up to
    [max_retransmits] times (then [Abort (Channel_down round)]), first
    backing off [backoff * 2^retry] when [backoff] is given (pre-copy
    gives it; post-copy's working-set push retries at once). *)

val note_outage : t -> Sim.Time.t -> unit
(** Count an outage and its stalled time (for transfers the driver runs
    itself). *)

val note_retransmit : t -> unit

val pause_source : t -> unit
(** Pause the source if it is running; {!abort} resumes only a source
    paused here. *)

val hand_over : t -> unit
(** The destination adopts the source's guest identity and leaves
    [Incoming]. *)

val round :
  t ->
  name:string ->
  ?round:int ->
  start:Sim.Time.t ->
  pages:int ->
  bytes:int ->
  ?fields:(string * string) list ->
  unit ->
  unit
(** Account one transfer that began at [start] and ends now: rounds,
    pages and bytes counters, the [round_duration_seconds] histogram and
    a span named [name] (fields: driver, [round] when given, pages_sent,
    bytes_sent, then [fields]). *)

val finish : t -> fields:(string * string) list -> 'a -> 'a Outcome.t
(** [Completed] or [Recovered] with these statistics; counts the outcome
    and emits the [migrate] span (driver, outcome, then [fields]). *)

val abort : t -> Outcome.reason -> 'a Outcome.t
(** Tear the migration down: clear the source's throttle, resume the
    source if this session paused it (not for [Postcopy_paused]), count
    the outcome and emit the [migrate] span. *)
