(** Process table of a (host or guest) operating system.

    Two roles in the reproduction: the attacker's reconnaissance reads
    QEMU command lines out of the host's table ([ps -ef] in Section
    IV-A), and the rootkit's clean-up rewrites GuestX's PID to the
    PID the victim's original QEMU held (Section III-A). *)

type pid = int

type proc = {
  pid : pid;
  name : string;
  cmdline : string;
  started_at : Sim.Time.t;
}

type t

val create : Sim.Engine.t -> t
(** PIDs are handed out from 300, roughly where a freshly booted system
    starts. *)

val spawn : t -> name:string -> cmdline:string -> proc
val kill : t -> pid -> bool
(** [false] if no such process. *)

val find : t -> pid -> proc option
(** Test hook: tests check a process's name and command line. *)

val exists : t -> pid -> bool
(** Test hook: tests check which processes launches, kills and installs
    leave. *)

val all : t -> proc list
(** Sorted by PID. *)

val reassign_pid : t -> old_pid:pid -> new_pid:pid -> (unit, string) result
(** Give a live process a different PID - the attacker's trick of
    renumbering GuestX's QEMU to the victim's old PID once the original
    process is dead. Fails if [old_pid] is not live or [new_pid] is
    taken. *)

val ps_ef : t -> string
(** Rendered listing, one process per line: what the attacker greps.
    No process records a parent, so the PPID column reads [-].
    Test hook: tests check the listing and its determinism. *)

val grep_cmdline : t -> substring:string -> proc list
