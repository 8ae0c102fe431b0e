(** QEMU Monitor.

    A textual command interpreter over a {!Vm.t}, implementing the
    subset of the QEMU human monitor protocol the paper's attack and
    introspection rely on (Section IV-A): [info
    status/qtree/blockstats/mtree/mem/network/cpus/migrate], [migrate],
    [migrate_cancel], [migrate_recover], [migrate_set_speed], [stop],
    [cont], and [quit].

    [migrate_cancel] flags the in-flight migration for abort at its
    next round boundary (honoured by {!Migration.Precopy});
    [migrate_recover], issued on a destination parked in the
    postcopy-paused state, resumes the interrupted page pull. [info
    migrate] additionally renders the stored statistics of the most
    recent migration (rounds, outcome, fault counters) when the
    migration library has recorded them via {!Vm.set_migration_stats}.

    [migrate] delegates to the handler installed with
    {!Vm.set_migrate_handler} (wired up by the migration library), just
    as real QEMU hands the work to its migration thread. *)

type response =
  | Ok_text of string  (** command executed; rendered output *)
  | Error_text of string  (** command failed or was not understood *)
  | Quit  (** [quit] was executed; the VM is now stopped *)

val execute : Vm.t -> string -> response
(** Run one monitor command line against the VM. *)

val execute_exn : Vm.t -> string -> string
(** [execute] but raising [Failure] on errors; convenient in scripts. *)

val banner : Vm.t -> string
(** The greeting a telnet connection to the monitor port prints. *)

val help_text : string
(** Test hook: tests check that every command it lists parses. *)
