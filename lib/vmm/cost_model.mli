(** Virtualization cost model.

    Predicts how long a guest operation takes at each virtualization
    level. The structure follows the mechanics the paper (Section V-B-2,
    citing the Turtles project [13] and [38]) attributes its overheads
    to:

    - pure CPU work is essentially free to virtualize; hardware
      extensions run it natively at L1, with a small residual
      cache/TLB penalty per extra level at L2+ (Table II);
    - a {e software VM exit} (hypercall, emulated I/O, interrupt window)
      costs [exit_l1] at L1, and at L2 it is trap-forwarded: the L1
      hypervisor's handling of the exit itself exits to L0 many times,
      multiplying the cost by [nested_exit_multiplier] (the reason
      pipe/socket latency explodes in Table III);
    - a {e hardware-assisted fault} (page fault filling a fresh address
      space, EPT violation) is absorbed by hardware at L1 but must be
      emulated by L0 when taken at L2 (shadow-on-EPT), costing
      [nested_page_fault] each - why fork is the worst case in
      Table III;
    - anything else (steal time, paravirt clock reads) is folded into
      per-op residual multipliers calibrated against the paper's
      measurements.

    The model extrapolates beyond L2: each extra nesting level
    multiplies exit costs again, which is what makes deeply nested
    rootkits progressively less stealthy. *)

val nested_exit_multiplier : float
(** Cost growth of a software exit per extra nesting level: 19. A
    software exit costs 1.63 µs at L1, an L0-emulated hardware fault
    taken at L2 costs 1.3 µs, and CPU work slows by 3 % per level
    beyond L1. *)

type op = {
  name : string;
  cpu_ns : float;
      (** bare-metal (L0) cost in nanoseconds; a float because lmbench's
          arithmetic rows are fractions of a nanosecond *)
  sw_exits : float;  (** software VM exits per operation *)
  hw_faults_l2 : float;
      (** hardware-assisted faults per operation that become L0-emulated
          at L2+ *)
  residual_l1 : float;  (** residual multiplier at L1 (default 1.0) *)
  residual_l2 : float;  (** residual multiplier at L2+ (default [residual_l1]) *)
}

val op :
  ?sw_exits:float ->
  ?hw_faults_l2:float ->
  ?residual_l1:float ->
  ?residual_l2:float ->
  name:string ->
  cpu:Sim.Time.t ->
  unit ->
  op

val pure_cpu_ns : name:string -> ns:float -> op
(** An operation of [ns] nanoseconds of CPU work and no virtualization
    cost beyond the CPU derate. *)

val cost_ns : level:Level.t -> op -> float
(** Unrounded cost in nanoseconds - needed for sub-nanosecond ops
    (lmbench arithmetic rows are fractions of a nanosecond). *)

val cost_n : level:Level.t -> op -> int -> Sim.Time.t
(** Cost of [n] consecutive operations. *)

val calibrate_hw_faults :
  name:string ->
  l0:Sim.Time.t ->
  l1:Sim.Time.t ->
  l2:Sim.Time.t ->
  unit ->
  op
(** Build an op from three measured anchors, attributing the L1 delta to
    a residual multiplier and the remaining L2 delta to hardware-assisted
    faults. Used to encode the paper's lmbench file-system rows, whose
    exit structure is not published. *)
