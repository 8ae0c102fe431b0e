(** The shared command-line surface.

    One definition of every flag the experiment drivers accept, so the
    bench shell and the CLI stay in lockstep (names, defaults, doc
    strings) and an experiment never grows a private variant. *)

val only : string option Cmdliner.Term.t
(** [--only ID]: run a single experiment. *)

val trials : int Cmdliner.Term.t
(** [--trials N] (alias [--runs], default 5): repetitions per data
    point. *)

val jobs : int Cmdliner.Term.t
(** [--jobs N]/[-j N] (default 1): worker domains; 0 = all cores.
    Output is byte-identical whatever the value. *)

val shards : int Cmdliner.Term.t
(** [--shards N] (default 1): engine partitions for sharded-world
    experiments (fleet). Output is byte-identical whatever the
    value. *)

val seed : int option Cmdliner.Term.t
(** [--seed SEED]: root seed; [None] means each experiment's
    {!Experiment.t.default_seed}. *)

val seed_default : int -> int Cmdliner.Term.t
(** [--seed SEED] with an explicit default, for single-scenario tools
    (the CLI uses 42). *)

val faults : string Cmdliner.Term.t
(** [--faults PROFILE] (default "none"): fault profile name, validated
    with {!Sim.Fault.profile_of_string} at startup. *)

val metrics_out : string option Cmdliner.Term.t
(** [--metrics-out FILE]: Prometheus export path ("-" for stdout). *)

val trace_out : string option Cmdliner.Term.t
(** [--trace-out FILE]: JSONL span-trace export path ("-" for stdout). *)

val list_only : bool Cmdliner.Term.t
(** [--list]: print experiment ids and exit. *)

val sink : metrics_out:string option -> trace_out:string option -> Sim.Telemetry.t option
(** The run's telemetry sink: present iff at least one export path was
    given, so unexported runs pay nothing and stay byte-identical to an
    uninstrumented build. *)

val export :
  metrics_out:string option -> trace_out:string option -> Sim.Telemetry.t option -> unit
(** Write whichever exports were requested. *)
