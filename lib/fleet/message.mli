(** Everything that crosses a host boundary, as inert data.

    Fleet hosts live on separate engines (and, when sharded, separate
    domains), so the only things allowed between them are values with
    no live simulation state: migration stream descriptors, packets
    re-addressed on arrival, and plain request/report records. These
    are exactly the ['msg] payloads the fleet posts through
    {!Sim.Parallel.run_sharded} mailboxes. *)

type t =
  | Vm_stream of Migration.Stream.descriptor
      (** a migrating tenant: captured on the source host, resumed on
          the destination when the mailbox is drained *)
  | Chatter of Net.Packet.t
      (** east-west traffic; the receiving host re-addresses it to its
          own gateway and injects it on its uplink *)
  | Audit_request
      (** SOC -> host: pull every registered tenant's next dedup probe
          forward ({!Cloudskulk.Detector_service.pull_probes_forward}) *)
  | Verdict_report of {
      vr_host : int;
      vr_tenant : string;
      vr_at : Sim.Time.t;
      vr_ttd : Sim.Time.t;
      vr_probes : int;
    }
      (** host -> SOC: a tenant's first [Nested_vm_detected] flip *)
