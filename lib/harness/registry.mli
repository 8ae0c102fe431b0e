(** The experiment registry and its dispatch shell.

    Experiment modules {!register} their {!Experiment.t} specs; a
    driver executable is then one call to {!main}. The registry owns
    the whole flag surface (see {!Flags}), builds one root
    {!Sim.Ctx.t} per experiment - seeded from [--seed] or the spec's
    default, carrying the shared sink and the [--faults] profile - and
    exports telemetry once at the end of the run. *)

val register : Experiment.t -> unit
(** Append a spec. Registration order is presentation order ([--list]
    and full runs). Raises [Invalid_argument] on a duplicate id. *)

val list_lines : unit -> string list
(** The [--list] output, one line per experiment ([%-14s %s] of id and
    doc). Test hook: tests pin it without spawning a process. *)

val term : prologue:string list -> unit Cmdliner.Term.t
(** The assembled term over the shared flags. [prologue] lines are
    printed before a full (no [--only]) run. Test hook: {!main} evaluates
    it; tests parse flags through it without spawning a process. *)

val main : name:string -> doc:string -> ?prologue:string list -> unit -> int
(** Build the command and [Cmdliner.Cmd.eval] it; returns the exit
    code. *)
