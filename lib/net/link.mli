(** Point-to-point link capacity model.

    A link has a propagation latency and a bandwidth. [transfer_time]
    gives the serialisation+propagation delay for a burst of bytes; flows
    and the migration channel use it to pace virtual time. *)

type t = {
  latency : Sim.Time.t;
  bandwidth_bytes_per_s : float;
}

val make : latency:Sim.Time.t -> bandwidth_mbytes_per_s:float -> t
(** Raises [Invalid_argument] on a non-positive bandwidth or negative
    latency. Test hook: experiments use the preset links below; tests build
    links of any shape. *)

val min_bandwidth_bytes_per_s : float
(** The floor (1 B/s) any derating clamps to; below it serialisation
    times overflow the nanosecond clock and stop meaning anything.
    Test hook: tests check that derating clamps to it. *)

val loopback : t
(** Same-host virtio/loopback path: 50 µs latency, ~2 GB/s. This is why
    the paper's single-machine migrations avoid "a lot of network
    traffic". *)

val lan_1gbe : t
(** 1 GbE datacenter link: 200 µs latency, ~117 MB/s goodput. *)

val migration_loopback : t
(** The effective QEMU migration channel on one host. QEMU's migration
    thread is far slower than raw loopback (page scanning, dirty bitmap
    syncs, default bandwidth caps): ~50 MB/s effective, calibrated so
    that an idle 1 GiB guest migrates L0-to-L1 in the ~26 s of Fig 4
    (after the per-level nested-destination derate). *)

val transfer_time : t -> int -> Sim.Time.t
(** [transfer_time t bytes] = latency + bytes/bandwidth. Zero bytes cost
    exactly the latency; a negative byte count raises
    [Invalid_argument]. The result is always a finite, non-negative
    duration because bandwidth never drops below
    {!min_bandwidth_bytes_per_s}. *)

val scale_bandwidth : t -> float -> t
(** Derate (factor < 1) or upgrade the bandwidth. Nested virtualization
    derates the effective channel. Raises [Invalid_argument] on a
    non-positive or NaN factor; repeated derating saturates at
    {!min_bandwidth_bytes_per_s} rather than producing unbounded
    transfer times. *)
