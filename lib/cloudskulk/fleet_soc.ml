(* The datacenter-level security operations centre.

   Each fleet host runs its own Detector_service; this aggregator lives
   on one host (the fleet pins it to host 0) and consumes the verdict
   reports the per-host services forward through shard mailboxes. It
   also plans the fleet-wide audit rotation: a deterministic round-robin
   cursor over the host population, so the sequence of audited hosts is
   a pure function of how many audits have been sent. No engine state
   lives here - the owning host schedules the ticks and posts the mail;
   this module only accumulates and decides. *)

type detection = {
  det_host : int;
  det_tenant : string;
  det_at : Sim.Time.t;  (* fleet clock when the report reached the SOC *)
  det_ttd : Sim.Time.t;  (* registration-to-detection on the origin host *)
  det_probes : int;  (* dedup probes the origin host spent on the tenant *)
}

type t = {
  mutable detections_rev : detection list;
  mutable reports : int;
  mutable audits_sent : int;
  mutable cursor : int;  (* next host in the audit rotation *)
}

let create () = { detections_rev = []; reports = 0; audits_sent = 0; cursor = 0 }

let note t d =
  t.reports <- t.reports + 1;
  (* first report wins per (host, tenant): re-flips do not re-detect *)
  if
    not
      (List.exists
         (fun d' -> d'.det_host = d.det_host && String.equal d'.det_tenant d.det_tenant)
         t.detections_rev)
  then t.detections_rev <- d :: t.detections_rev

let detections t = List.rev t.detections_rev
let reports_received t = t.reports
let audits_sent t = t.audits_sent

let next_audit_target t ~hosts =
  if hosts <= 0 then None
  else begin
    let target = t.cursor mod hosts in
    t.cursor <- (t.cursor + 1) mod hosts;
    t.audits_sent <- t.audits_sent + 1;
    Some target
  end
