(** Deterministic program execution.

    [run p] builds a self-contained world from [p]'s seed and knobs
    (its own {!Sim.Ctx} with a private telemetry sink and the program's
    fault profile), interprets the action sequence, and checks the
    {!Oracle}s after every action. Execution is a pure function of the
    program: same program, same features, same signature, same
    violation - on any worker, at any [--jobs], which is what lets
    {!Engine} fan candidate batches out through {!Sim.Parallel} and
    still fold coverage deterministically. *)

type outcome = {
  features : string list;  (** sorted, distinct *)
  signature : int64;  (** {!Coverage.path_signature} of [features] *)
  violation : Oracle.violation option;
      (** the first oracle violation; later actions were not run *)
}

val run : Program.t -> outcome
(** Never raises: an escaped exception from any layer is itself
    reported as a violation under the ["exception"] oracle. *)
