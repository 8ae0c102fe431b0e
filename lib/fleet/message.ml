(* Everything that crosses a host boundary, as inert data. A message
   must be safe to hand to another engine (and another domain), so no
   constructor may carry live simulation state - only descriptors,
   packets, and plain records. *)

type t =
  | Vm_stream of Migration.Stream.descriptor
      (* a migrating tenant: captured on the source, resumed on arrival *)
  | Chatter of Net.Packet.t
      (* east-west traffic; re-addressed to the destination's gateway *)
  | Audit_request
      (* SOC -> host: pull every tenant's next dedup probe forward *)
  | Verdict_report of {
      vr_host : int;
      vr_tenant : string;
      vr_at : Sim.Time.t;
      vr_ttd : Sim.Time.t;
      vr_probes : int;
    }
      (* host -> SOC: first Nested_vm_detected flip for a tenant *)
