(** Netperf TCP_STREAM workload (paper Fig 3).

    Bulk unidirectional TCP transfer from the execution environment to
    an external sink over a 1 GbE path. Virtio network I/O is efficient
    even nested (paravirtual ring buffers batch exits), so mean
    throughput barely moves across L0/L1/L2; what distinguishes the
    levels in the paper is variance (RSDs of 1.11 %, 10.32 %, 3.96 %).
    Both effects are modelled. *)

type config = {
  link : Net.Link.t;
  derate_per_level : float;  (** mean goodput factor per virtio traversal (default 0.985) *)
  rsd_by_level : float array;  (** run-to-run jitter per level, from the paper *)
  transfer_bytes : int;  (** bytes per run (default 128 MiB) *)
}

type result = {
  throughput_mbit_s : float;
  elapsed : Sim.Time.t;
}

val run : ?config:config -> Exec_env.t -> result
(** One netperf run on the environment's clock. *)

val background : ?config:config -> unit -> Background.spec
(** Continuous sender for migration experiments: dirties socket-buffer
    pages at a modest rate and keeps the NIC counters moving. *)
