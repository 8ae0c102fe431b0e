(** The on-disk corpus: programs with recorded outcomes.

    A corpus file is a {!Program.to_string} rendering followed (after
    the program's ["end"] line) by one [expect] line recording what the
    program did when it was saved:

    {v expect ok <signature-hex> v}
    {v expect violation <oracle> <signature-hex> v}

    [check] re-executes the program and demands the byte-identical
    outcome - the regression contract for minimised finds and for the
    hand-seeded near-miss programs in [test/corpus/]. Directory loads
    are sorted by filename so corpus iteration order never depends on
    the filesystem. *)

type entry = {
  name : string;  (** basename, sans directory *)
  program : Program.t;
  expect_violation : string option;  (** oracle name, [None] for [ok] *)
  expect_signature : string;  (** {!Coverage.hex} of the signature *)
}

val entry_of_outcome : name:string -> Program.t -> Exec.outcome -> entry

val entry_to_string : entry -> string

val entry_of_string : name:string -> string -> (entry, string) result
(** Test hook: {!load_dir} parses every file with it; tests check the round
    trip through {!entry_to_string}. *)

val load_dir : string -> (entry list, string) result
(** All [*.skulkfuzz] files in the directory, sorted by name; an empty
    or missing directory is an empty corpus. *)

val save : dir:string -> entry -> string
(** Write [entry] as [dir/<name>]; returns the path. *)

val check : entry -> (unit, string) result
(** Replay the program; [Error] describes any outcome drift (signature
    or violation class differing from the recorded expectation). *)
