(** Netperf TCP_STREAM workload (paper Fig 3).

    Bulk unidirectional TCP transfer from the execution environment to
    an external sink over a 1 GbE path. Virtio network I/O is efficient
    even nested (paravirtual ring buffers batch exits), so mean
    throughput barely moves across L0/L1/L2; what distinguishes the
    levels in the paper is variance (RSDs of 1.11 %, 10.32 %, 3.96 %).
    Both effects are modelled: each virtio traversal keeps 98.5 % of the
    goodput, and one run moves 128 MiB. *)

type result = {
  throughput_mbit_s : float;
  elapsed : Sim.Time.t;
}

val run : Exec_env.t -> result
(** One netperf run on the environment's clock. *)

val background : unit -> Background.spec
(** Continuous sender for migration experiments: dirties socket-buffer
    pages at a modest rate and keeps the NIC counters moving. *)
