(** The coverage-guided fuzzing loop.

    Rounds of [batch] candidate programs: each candidate is either
    freshly {!Program.generate}d or a {!Program.mutate}d corpus member,
    all drawn sequentially from one splitmix64 stream; the batch is
    executed through {!Sim.Parallel.map} (workers share nothing - every
    program builds its own world) and folded back {e in candidate
    order}, so corpus growth, coverage counts and finds are a pure
    function of [(seed, budget, batch)] whatever [jobs] is.

    A candidate contributing an unseen coverage feature joins the
    corpus. The first program to violate each oracle class is minimised
    (replay-verified delete-from-end passes, then {!Program.shrink}
    steps) and reported as a find.

    [run] also executes the feedback-free baseline - same seed, same
    budget, generation only - and reports both coverage counts, so
    every summary doubles as the guided-beats-random acceptance
    check. *)

type config = {
  budget : int;  (** candidate executions in the guided run *)
  batch : int;  (** candidates per round *)
  jobs : int;  (** parallel workers ({!Sim.Parallel.map}) *)
  seed : int;
  initial : Program.t list;  (** pre-seeded corpus (e.g. [test/corpus/]) *)
  baseline : bool;
      (** also run the feedback-free baseline (doubles the execution
          count); when [false] the [random_*] stats are 0 *)
}

type find = {
  find_program : Program.t;  (** minimised *)
  find_violation : Oracle.violation;
  find_outcome : Exec.outcome;  (** of the minimised program *)
}

type stats = {
  executed : int;
  corpus : Program.t list;  (** in discovery order *)
  guided_features : int;
  guided_signatures : int;
  random_features : int;
  random_signatures : int;
  finds : find list;
  feature_table : (string * int) list;  (** guided run, sorted *)
}

val run : ?progress:(string -> unit) -> config -> stats
