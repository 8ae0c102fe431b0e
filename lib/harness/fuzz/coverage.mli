(** Coverage accounting: feature strings and program signatures.

    A program execution yields a set of {e feature} strings - monitor
    command outcomes, migration outcome classes, detector verdict
    paths, KSM tree-shape buckets, log2-bucketed telemetry series
    values ({!Sim.Telemetry.fold_series}). The sorted feature set
    hashes to a 64-bit {e signature} (FNV-1a; no [Hashtbl.hash], so
    signatures are stable across OCaml versions and checked into the
    corpus). A map accumulates features across executions; a program
    contributing an unseen feature is interesting and enters the
    corpus. *)

type t

val create : unit -> t

val add : t -> string list -> int
(** Record an execution's features; returns how many were new. *)

val distinct : t -> int

val features : t -> (string * int) list
(** All features with hit counts, sorted by feature string. *)

val bucket : float -> int
(** Log2 bucket: 0 for values [<= 0], else [1 + floor(log2 v)] clamped
    to 62 - coarse enough that harmless magnitude jitter does not mint
    new features, fine enough that regimes (zero / few / many) do. *)

val path_signature : string list -> int64
(** FNV-1a 64 over the emission sequence as given - order and
    duplicates significant, so distinct action paths to the same
    feature set hash apart (cf. AFL path vs edge coverage). *)

val hex : int64 -> string
(** 16-digit lowercase hex, the corpus rendering of a signature. *)
