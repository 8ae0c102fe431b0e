type result = {
  bytes : int;
  elapsed : Sim.Time.t;
  throughput_mbit_s : float;
  retransmits : int;
  link_downtime : Sim.Time.t;
}

let throughput_mbit_s ~bytes ~elapsed =
  let secs = Sim.Time.to_s elapsed in
  if secs <= 0. then 0. else float_of_int bytes *. 8. /. 1e6 /. secs

let chunk_bytes = 65536
let burst_chunks = 16

let run ctx ~link ?(derate = 1.) ?(noise_rsd = 0.) ?rng ?fault ~bytes () =
  if bytes < 0 then invalid_arg "Flow.run: negative byte count";
  let engine = Sim.Ctx.engine ctx in
  let telemetry = Sim.Ctx.telemetry ctx in
  let m_bytes = Sim.Telemetry.counter telemetry ~component:"net" "flow_bytes_total" in
  let m_retransmits =
    Sim.Telemetry.counter telemetry ~component:"net" "flow_chunk_retransmits_total"
  in
  let m_downtime =
    Sim.Telemetry.counter telemetry ~component:"net" "flow_link_downtime_ns_total"
  in
  let link = Link.scale_bandwidth link derate in
  let rng = match rng with Some r -> r | None -> Sim.Engine.fork_rng engine in
  let started = Sim.Engine.now engine in
  let finished = ref None in
  let retransmits = ref 0 in
  let link_downtime = ref Sim.Time.zero in
  (* TCP pipelines chunks, so propagation latency is paid once (the
     handshake), and afterwards the stream is serialisation-bound. *)
  let serialisation this =
    Sim.Time.s (float_of_int this /. link.Link.bandwidth_bytes_per_s)
  in
  let chunk_base this =
    Sim.Time.mul (serialisation this) (Sim.Rng.lognormal_noise rng ~rsd:noise_rsd)
  in
  (* Fault-free path: one engine event per burst of up to [burst_chunks]
     chunks, not one per chunk. The per-chunk delays are still computed
     chunk by chunk in stream order - same RNG draws, same Int64
     additions as one event per chunk would make (Time.add is
     associative) - so the completion time is bit-identical; only the
     event count drops from O(chunks) to O(bursts). *)
  let rec send_burst remaining =
    if remaining <= 0 then finished := Some (Sim.Engine.now engine)
    else begin
      let delay = ref Sim.Time.zero in
      let rem = ref remaining in
      let n = ref 0 in
      while !rem > 0 && !n < burst_chunks do
        let this = min chunk_bytes !rem in
        delay := Sim.Time.add !delay (chunk_base this);
        rem := !rem - this;
        incr n
      done;
      let next = !rem in
      ignore (Sim.Engine.schedule_after engine !delay (fun () -> send_burst next))
    end
  in
  let rec send_chunk f remaining =
    if remaining <= 0 then finished := Some (Sim.Engine.now engine)
    else begin
      let this = min chunk_bytes remaining in
      let delay = Sim.Time.mul (chunk_base this) (Sim.Fault.chunk_jitter f) in
      if Sim.Fault.drops_chunk f then begin
        (* the chunk's serialisation time is spent, the loss is noticed
           one RTO (2x latency) later, and the chunk goes again *)
        incr retransmits;
        let stall = Sim.Time.add delay (Sim.Time.mul link.Link.latency 2.) in
        ignore (Sim.Engine.schedule_after engine stall (fun () -> send_chunk f remaining))
      end
      else begin
        match Sim.Fault.cut f ~now:(Sim.Engine.now engine) ~during:delay with
        | Some (after, outage) ->
          (* the link died mid-chunk: wait out the repair, resend *)
          incr retransmits;
          link_downtime := Sim.Time.add !link_downtime outage;
          let stall = Sim.Time.add after outage in
          ignore (Sim.Engine.schedule_after engine stall (fun () -> send_chunk f remaining))
        | None ->
          ignore
            (Sim.Engine.schedule_after engine delay (fun () -> send_chunk f (remaining - this)))
      end
    end
  in
  let transmit = match fault with None -> send_burst | Some f -> send_chunk f in
  ignore (Sim.Engine.schedule_after engine link.Link.latency (fun () -> transmit bytes));
  let rec drive () =
    match !finished with
    | Some at -> at
    | None ->
      if not (Sim.Engine.step engine) then
        raise (Sim.Engine.Simulation_deadlock "Flow.run: engine drained before flow completed")
      else drive ()
  in
  let at = drive () in
  let elapsed = Sim.Time.diff at started in
  Sim.Telemetry.add m_bytes bytes;
  Sim.Telemetry.add m_retransmits !retransmits;
  Sim.Telemetry.addf m_downtime (Int64.to_float (Sim.Time.to_ns !link_downtime));
  Sim.Telemetry.span telemetry ~component:"net" ~name:"flow" ~start:started ~stop:at
    ~fields:
      [
        ("bytes", string_of_int bytes);
        ("retransmits", string_of_int !retransmits);
      ]
    ();
  {
    bytes;
    elapsed;
    throughput_mbit_s = throughput_mbit_s ~bytes ~elapsed;
    retransmits = !retransmits;
    link_downtime = !link_downtime;
  }
