(** Migration outcomes under an imperfect channel.

    QEMU's migration state machine does not assume success: a migration
    can complete, fail and leave the source running, or (post-copy) land
    in [postcopy-paused] and be resumed with [migrate_recover]. This
    module is the simulator's version of that vocabulary; both
    {!Precopy.migrate} and {!Postcopy.migrate} return their statistics
    wrapped in an {!t}. A fault-free run always returns {!Completed}
    with exactly the statistics the assume-success code path used to
    produce. *)

type reason =
  | Channel_down of int
      (** the link died during the numbered round and the
          retransmission allowance ran out *)
  | Cancelled of int  (** [migrate_cancel] was honoured at this round *)
  | Postcopy_paused
      (** the post-copy page pull lost its channel; the destination
          guest is paused and [migrate_recover] can resume it *)

val reason_to_string : reason -> string

type recovery = {
  retransmissions : int;  (** transmissions retried after a failure *)
  outages : int;  (** link-down events survived *)
  stalled : Sim.Time.t;  (** virtual time lost to outages and backoff *)
}

type 'a t =
  | Completed of 'a  (** clean finish: the channel never pushed back *)
  | Recovered of 'a * recovery
      (** finished, but only via retransmission/backoff (pre-copy) or a
          postcopy-recover of a paused destination *)
  | Aborted of {
      reason : reason;
      source_resumed : bool;
          (** pre-copy failure semantics: the source was resumed (or was
              never paused) and still owns the guest *)
      retransmissions : int;
      stalled : Sim.Time.t;
    }

val stats : 'a t -> 'a option
(** The statistics of a migration that moved the guest ([Completed] or
    [Recovered]); [None] for [Aborted]. *)

val completed : 'a t -> bool
(** True when the destination ended up running the guest. *)

val stats_exn : 'a t -> 'a
(** Raises [Invalid_argument] on [Aborted]. *)

val check_legal : 'a t -> source:Vmm.Vm.t -> dest:Vmm.Vm.t -> (unit, string) result
(** Whether the two VMs' states are consistent with this outcome,
    checked at the moment the outcome is returned: a completed or
    recovered migration must leave the destination running and the
    source a (paused or killed) husk; a postcopy-paused abort parks the
    destination awaiting [migrate_recover]; any other abort must leave
    the destination in the incoming state (or torn down) with
    [source_resumed] telling the truth about the source. [Error]
    describes the first inconsistency - the migration-legality oracle
    shared by the fuzzer and the chaos suites (cf.
    {!Memory.Ksm.check_invariants}). *)

val describe : 'a t -> string
(** One-line human rendering ("completed", "recovered after 1 outage,
    3 retransmissions", "aborted: ..."). *)
