(** Bulk-transfer flows.

    Models a unidirectional TCP stream (Netperf TCP_STREAM, or the
    migration byte channel) as a sequence of chunk transmissions over a
    {!Link}. Virtualization overhead enters as a bandwidth derating
    factor per virtio traversal, so L0/L1/L2 senders see slightly
    different goodput - the effect Fig 3 measures (and finds to be within
    noise for TCP bulk transfer). An optional {!Sim.Fault} injector
    perturbs the stream chunk by chunk: lost chunks are retransmitted
    after an RTO stall, jittered chunks serialise slower, and a link
    outage stalls the whole stream until repair. *)

type result = {
  bytes : int;
  elapsed : Sim.Time.t;
  throughput_mbit_s : float;
  retransmits : int;  (** chunks resent after a loss or an outage (0 without faults) *)
  link_downtime : Sim.Time.t;  (** injected outage time the flow sat through *)
}

val run :
  Sim.Ctx.t ->
  link:Link.t ->
  ?derate:float ->
  ?noise_rsd:float ->
  ?rng:Sim.Rng.t ->
  ?fault:Sim.Fault.t ->
  bytes:int ->
  unit ->
  result
(** Simulate transferring [bytes] over [link] with effective bandwidth
    [link.bandwidth * derate] (default derate 1.0). The transfer is
    executed on the context's virtual clock in 64 KiB chunks; per-chunk
    jitter [noise_rsd] (default 0) models scheduling noise. Without a
    fault injector the stream is paced one engine event per burst of 16
    chunks instead of one per chunk: per-chunk delays are still drawn
    and summed in stream order, so the elapsed time is what one event
    per chunk would give while the event count drops sixteenfold.
    [fault] (default absent: the exact fault-free behaviour, no extra
    RNG draws) injects loss, jitter, degradation, and outages per chunk
    - fault decisions are per-chunk and time-dependent, so a faulted
    stream keeps the chunk-at-a-time pacing. The engine is run until
    the flow completes - every byte always arrives; faults only cost
    time. The context's sink counts [net_flow_bytes_total],
    [net_flow_chunk_retransmits_total] and
    [net_flow_link_downtime_ns_total], and records one ["flow"] span per
    call. Test hook: only test_net sets [noise_rsd] ("fault-free bursts
    add up the per-chunk delays") and [fault] (the lossy and outage
    flow tests); Netperf draws its jitter once per run and passes
    neither. *)
