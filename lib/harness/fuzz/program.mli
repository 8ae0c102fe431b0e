(** Scenario programs: the fuzzer's input language.

    A program is a typed action sequence over the simulator's public
    surfaces - scenario construction knobs ({!Cloudskulk.Scenarios}),
    QEMU monitor command interleavings, workload bursts, KSM scan
    nudges, detector-protocol file deliveries, side migrations with
    fault/cancel timings, VM launches and kills - plus the construction
    parameters of the world it runs in. Everything is bounded and
    deterministic: a program plus the library version pins one exact
    execution ({!Exec.run}).

    Programs have a line-oriented textual form ([to_string] /
    [of_string]) so minimised finds can be checked into [test/corpus/]
    and replayed byte-identically by the test suite. *)

type ksm_choice = K_default | K_fast | K_incremental | K_tiny

type fault_choice = F_none | F_lossy | F_degraded | F_flaky

type strategy_choice = S_precopy | S_postcopy

type workload_choice = W_idle | W_compile | W_filebench | W_netperf

type scenario_spec =
  | Clean
  | Infected of { syncs : bool; use_vtx : bool; strategy : strategy_choice }
      (** [syncs] is the Section VI-D evasion - programs carrying it are
          exempt from the false-negative oracle *)

type action =
  | Advance of int  (** run the engine for N virtual milliseconds *)
  | Monitor of int  (** index into the {!monitor_command} pool *)
  | Workload of { kind : workload_choice; rate : int; ms : int }
      (** run a background workload in the customer VM for [ms] *)
  | Ksm_scan of int  (** force N immediate ksmd wakeups *)
  | Deliver of { pages : int; salt : int }
      (** push a fresh unique file through the web-interface path *)
  | Mutate of { salt : int }  (** mutate the most recently delivered file *)
  | Launch of { memory_mb : int }  (** launch an extra VM on the host *)
  | Kill_last  (** kill the most recently launched extra VM *)
  | Migrate of {
      strategy : strategy_choice;
      fault : fault_choice;
      memory_mb : int;
      nested : bool;  (** destination nested inside a GuestX (Fig 4 L0-L1) *)
      cancel : bool;  (** request [migrate_cancel] before starting *)
    }  (** run a side live migration on a fresh {!Vmm.Layers.migration_pair} *)
  | Detect of { file_pages : int }  (** run the full dedup-detector protocol *)

(** A mini datacenter bolted onto the program ([fleet hosts=... ...]
    header line, absent for classic programs): when present, {!Exec.run}
    runs a {!Fleet.World} with these knobs after the single-host
    scenario, feeds its churn ledger to the conservation oracle, and -
    when [fl_shards > 1] - re-runs it single-shard and demands
    byte-identical output (the partition-invariance oracle). Blind
    generation never mints one; fleets enter hand-seeded and spread by
    mutation, so fleet-free programs keep their sealed signatures. *)
type fleet_knob = {
  fl_hosts : int;
  fl_tenants : int;  (** tenant VMs per host *)
  fl_churn : int;  (** boot = kill = migrate rate, events/hour/host *)
  fl_infect : int;  (** infection probability, percent *)
  fl_shards : int;  (** partition Exec runs the fleet with *)
}

type t = {
  seed : int;  (** the program's world seed *)
  scenario : scenario_spec;
  customer_mb : int;  (** customer VM RAM; small, to afford many programs *)
  ksm : ksm_choice;
  faults : fault_choice;  (** the scenario context's fault profile *)
  fleet : fleet_knob option;
  actions : action list;
}

val fleet_spec_of : fleet_knob -> Fleet.Spec.t
(** The (small, 10-sim-minute) fleet spec {!Exec} runs for a fleet
    program; shared with {!validate} so a degenerate fleet is a parse
    error rather than a crash at execution time. *)

val monitor_command_count : int
(** Size of the fixed pool [Monitor i] indexes into. *)

val monitor_command : int -> string
(** The pool entry at an index in [0, monitor_command_count): well-formed
    commands, commands needing state the program may not have, and
    garbage. Immutable by construction so fuzz workers in parallel
    domains can read it freely. *)

val fault_to_string : fault_choice -> string
val strategy_to_string : strategy_choice -> string
val workload_to_string : workload_choice -> string

val validate : t -> (unit, string) result
(** All fields within the generator's bounds - what [of_string] accepts.
    Test hook: {!of_string} applies it; tests check generated, mutated and
    shrunk programs with it. *)

val generate : Sim.Rng.t -> t
(** A fresh random program: at most 4 actions, always in-bounds. *)

val mutate : Sim.Rng.t -> t -> t
(** One to three mutation steps (insert/delete/duplicate/swap/replace/
    tweak an action; flip a scenario, KSM, fault or sizing knob;
    reseed). Mutated programs may grow up to 16 actions -
    structurally richer than anything [generate] emits, which is where
    guided fuzzing outruns blind generation. *)

val shrink : t -> t list
(** One-step-smaller variants (a numeric halved toward its floor, the
    customer VM shrunk) for minimisation; action deletion is the
    minimiser's own pass. *)

val to_string : t -> string
(** Canonical text: ["skulkfuzz v1"] header, one field or action per
    line, terminated by ["end"]. *)

val of_string : string -> (t, string) result
(** Parse [to_string]'s format, validating bounds; ignores anything
    after the ["end"] line (the corpus format stores the expected
    outcome there). *)

val equal : t -> t -> bool
(** Test hook: {!mutate} uses it to insist on a change; tests check mutants
    with it. *)

val summary : t -> string
(** One line: scenario, knobs, action count. *)
