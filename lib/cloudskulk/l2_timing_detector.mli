(** Guest-side (L2) timing detection - and why the paper rejects it.

    Section VI-A: a VM user could try to detect the RITM from inside
    their own VM by timing operations whose cost explodes under nested
    virtualization (pipe latency goes from ~6.75 µs at L1 to ~65 µs at
    L2, Table III). The catch: "events and timing measurements in L2 can
    be monitored and manipulated by attackers from L1" - the L1
    hypervisor owns the guest's clock sources, so it can scale guest-
    observed time until the anomaly disappears.

    This module implements both sides:
    - the naive guest-side detector (time one reference operation
      against its provisioning-time baseline);
    - a consistency variant that times several operations with
      {e different} nesting-overhead profiles, which a single constant
      clock scale cannot normalise simultaneously;
    - the attacker's countermeasures ({!Stealth}-style):
      {!hide_reference_op} (defeats the naive detector) and full result
      spoofing (trapping the benchmark and fabricating its output -
      defeats everything, which is the paper's point and the reason
      detection belongs at L0).

    See the [abl-l2] bench for the head-to-head. *)

type verdict =
  | Looks_nested
  | Looks_normal

val verdict_to_string : verdict -> string

type observation = {
  op_name : string;
  expected_l1_ns : float;  (** provisioning-time baseline *)
  observed_ns : float;  (** what the guest's clock reports now *)
  ratio : float;
}

type result = {
  observations : observation list;
  naive_verdict : verdict;  (** from the reference op alone *)
  consistency_verdict : verdict;
      (** [Looks_nested] if {e any} op's ratio trips the threshold - a
          constant clock scale can hide one profile, not all *)
  max_ratio_spread : float;
      (** max/min observed ratio across ops: > threshold spread is
          itself suspicious even if every ratio looks normal *)
}

val measure : Vmm.Vm.t -> result
(** Run the guest-side timing benchmark inside a VM: 1000 iterations of
    the reference op (lmbench pipe latency), then of each consistency op
    (pipe, fork+exit, signal install). An observed/expected ratio above
    3.0 reads as nested. The observations go
    through the VM's {!Vmm.Vm.guest_time_scale}, so an L1 attacker's
    clock manipulation affects them exactly as it would in reality.
    Advances the VM's engine by the benchmark's (real) duration. *)

(** {2 The attacker's countermeasures} *)

val hide_reference_op : Vmm.Vm.t -> unit
(** Set the victim's guest clock scale so the {e reference} operation
    times exactly as it would at L1 - the cheap evasion. Other ops with
    different overhead profiles remain skewed. *)

val spoof_results : Vmm.Vm.t -> unit
(** The full evasion: L1 traps the benchmark and fabricates perfect L1
    numbers. Modelled as installing a result filter; subsequent
    {!measure} calls on this VM return baseline values exactly. *)

val stop_spoofing : Vmm.Vm.t -> unit
