(** Memory-deduplication-based CloudSkulk detection (paper Section VI).

    The defender, at L0, cannot trust anything the (possibly
    impersonated) guest reports; but KSM gives an oracle about what is
    {e in memory}: writes to merged pages are slow (copy-on-write) and
    writes to private pages fast. The two-step protocol:

    + Deliver a unique file (File-A) to the customer's VM through the
      cloud web interface; load a copy in L0; wait for ksmd; time a
      write to each page ({e t1}). Merged (slow) t1 confirms File-A is
      in the guest.
    + Have the customer change every page (File-A-v2); load a fresh
      original copy in L0; wait; time again ({e t2}).

    If there is no RITM, the guest's only copy is now different, so t2
    is fast. If a RITM sits in the middle, the L1 attacker still holds
    the {e original} File-A (they must, to impersonate the guest), so
    the L0 copy merges with L1's and t2 stays slow. {e t0} - the time
    for a copy that exists nowhere else - is the baseline. *)

type verdict =
  | Nested_vm_detected
  | No_nested_vm
  | Inconclusive of string

val verdict_to_string : verdict -> string

val verdict_equal : verdict -> verdict -> bool
(** Structural equality ([Inconclusive] reasons compare with
    [String.equal]) — use instead of polymorphic compare. *)

type environment = {
  ctx : Sim.Ctx.t;
  host : Vmm.Hypervisor.t;
  deliver_to_guest : Memory.File_image.t -> (unit, string) result;
      (** the web-interface push: lands File-A in the customer VM's
          memory (Section VI-D-1) *)
  mutate_in_guest : name:string -> salt:int -> (unit, string) result;
      (** ask the customer's agent to change every page of the file *)
}

type measurement = {
  label : string;
  per_page_ns : float array;  (** write time per probed page: Figs 5-6's series *)
  summary : Sim.Stats.summary;
  cow_fraction : float;  (** ground truth, for tests; the real detector sees only times *)
}

type outcome = {
  t0 : measurement;
  t1 : measurement;
  t2 : measurement;
  verdict : verdict;
  wait_per_step : Sim.Time.t;
  elapsed : Sim.Time.t;
}

val run : ?file_pages:int -> environment -> (outcome, string) result
(** Execute the full protocol with a File-A of [file_pages] pages
    (default 100, the paper's). After each load the detector waits 2.5
    full ksmd passes, and a mean write at least 3.0 times t0's counts as
    merged. The verdict uses timing only:
    - t1 fast: [Inconclusive] (File-A never merged - ksmd too slow or
      the file never reached the guest);
    - t1 slow, t2 fast: [No_nested_vm];
    - t1 slow, t2 slow: [Nested_vm_detected]. *)

val measure_t0 : environment -> (measurement, string) result
(** Just the baseline measurement (a file that exists nowhere else).
    Test hook: {!run} takes this measurement first; tests check the baseline
    on its own. *)

val verdict_for_ratio : outcome -> ratio:float -> verdict
(** Re-decide a recorded outcome under a different merge-ratio
    threshold, from the t0/t1/t2 mean write times alone. With
    [ratio = 3.0] this reproduces [outcome.verdict]
    exactly — the decision rule is shared. Used by the [slo]
    experiment's ROC sweep to score thresholds post hoc without
    re-running the protocol. *)
