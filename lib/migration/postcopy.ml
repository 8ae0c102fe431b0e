type config = {
  link : Net.Link.t;
  page_header_bytes : int;
  nested_dest_derate : float;
  working_set_pages : int;
  demand_fault_rate : float;
  max_retransmits : int;
  pull_chunk_pages : int;
  auto_recover : bool;
}

let default_config =
  {
    link = Net.Link.migration_loopback;
    page_header_bytes = 8;
    nested_dest_derate = 0.82;
    working_set_pages = 2048;
    demand_fault_rate = 0.02;
    max_retransmits = 5;
    pull_chunk_pages = 256;
    auto_recover = true;
  }

type result = {
  downtime : Sim.Time.t;
  resume_time : Sim.Time.t;
  background_time : Sim.Time.t;
  total_time : Sim.Time.t;
  demand_faults : int;
  total_pages_sent : int;
}

let pow base n =
  let rec go acc n = if n <= 0 then acc else go (acc *. base) (n - 1) in
  go 1.0 n

exception Abort of Outcome.reason

let migrate ?(config = default_config) ?fault ctx ~source ~dest () =
  let engine = Sim.Ctx.engine ctx in
  match
    (match Vmm.Vm.state source with
    | Vmm.Vm.Running | Vmm.Vm.Paused -> (
      match Vmm.Vm.state dest with
      | Vmm.Vm.Incoming -> (
        match
          Vmm.Qemu_config.migration_compatible ~source:(Vmm.Vm.config source)
            ~dest:(Vmm.Vm.config dest)
        with
        | Error e -> Error ("incompatible configurations: " ^ e)
        | Ok () ->
          if
            Memory.Address_space.pages (Vmm.Vm.ram source)
            <> Memory.Address_space.pages (Vmm.Vm.ram dest)
          then Error "RAM size mismatch"
          else Ok ())
      | s -> Error ("destination is " ^ Vmm.Vm.state_to_string s ^ ", not incoming"))
    | s -> Error ("source is " ^ Vmm.Vm.state_to_string s ^ ", not running/paused"))
  with
  | Error e -> Error e
  | Ok () ->
    let telemetry = Vmm.Vm.telemetry source in
    let driver_label = [ ("driver", "postcopy") ] in
    let mig name =
      Sim.Telemetry.counter telemetry ~labels:driver_label ~component:"migration" name
    in
    let m_rounds = mig "rounds_total" in
    let m_pages = mig "pages_sent_total" in
    let m_bytes = mig "bytes_sent_total" in
    let m_retransmits = mig "retransmits_total" in
    let m_outages = mig "outages_total" in
    let m_demand_faults = mig "demand_faults_total" in
    let h_round =
      Sim.Telemetry.histogram telemetry ~labels:driver_label ~component:"migration"
        ~buckets:[ 0.001; 0.01; 0.1; 1.; 10.; 100. ]
        "round_duration_seconds"
    in
    let note_outcome outcome =
      Sim.Telemetry.incr
        (Sim.Telemetry.counter telemetry
           ~labels:[ ("driver", "postcopy"); ("outcome", outcome) ]
           ~component:"migration" "outcomes_total")
    in
    let extra = max 0 (Vmm.Level.to_int (Vmm.Vm.level dest) - 1) in
    let link = Net.Link.scale_bandwidth config.link (pow config.nested_dest_derate extra) in
    let sram = Vmm.Vm.ram source and dram = Vmm.Vm.ram dest in
    let pages = Memory.Address_space.pages sram in
    let started = Sim.Engine.now engine in
    let retransmissions = ref 0 and outages = ref 0 in
    let stalled = ref Sim.Time.zero in
    let we_paused = ref false in
    let copy_range lo hi =
      for i = lo to hi - 1 do
        ignore (Memory.Address_space.copy ~src:sram i ~dst:dram i)
      done
    in
    (* Phase 1: stop the source, push device state + working set. A
       channel failure here is an ordinary abort - the destination has
       not taken over yet, so the source resumes and keeps the guest. *)
    (match Vmm.Vm.state source with
    | Vmm.Vm.Running -> (
      we_paused := true;
      match Vmm.Vm.pause source with Ok () -> () | Error e -> invalid_arg e)
    | Vmm.Vm.Paused | Vmm.Vm.Created | Vmm.Vm.Incoming | Vmm.Vm.Stopped -> ());
    let ws = min config.working_set_pages pages in
    let ws_bytes = (ws * (Memory.Page.size_bytes + config.page_header_bytes)) + (512 * 1024) in
    let downtime_started = Sim.Engine.now engine in
    let phase1 () =
      let base = Net.Link.transfer_time link ws_bytes in
      match fault with
      | None -> ignore (Sim.Engine.run_for engine base)
      | Some f ->
        let rec attempt retry =
          let duration = Sim.Time.mul base (Sim.Fault.transmission_factor f) in
          match Sim.Fault.cut f ~now:(Sim.Engine.now engine) ~during:duration with
          | None -> ignore (Sim.Engine.run_for engine duration)
          | Some (after, outage) ->
            incr outages;
            Sim.Telemetry.incr m_outages;
            stalled := Sim.Time.add !stalled outage;
            ignore (Sim.Engine.run_for engine (Sim.Time.add after outage));
            if retry >= config.max_retransmits then raise (Abort (Outcome.Channel_down 1));
            incr retransmissions;
            Sim.Telemetry.incr m_retransmits;
            attempt (retry + 1)
        in
        attempt 0
    in
    (try
       phase1 ();
       let downtime = Sim.Time.diff (Sim.Engine.now engine) downtime_started in
       copy_range 0 ws;
       Vmm.Vm.adopt_guest_state dest ~from:source;
       (match Vmm.Vm.complete_incoming dest with Ok () -> () | Error e -> invalid_arg e);
       let resumed_at = Sim.Engine.now engine in
       Sim.Telemetry.incr m_rounds;
       Sim.Telemetry.add m_pages ws;
       Sim.Telemetry.add m_bytes ws_bytes;
       Sim.Telemetry.observe h_round (Sim.Time.to_s downtime);
       if Sim.Telemetry.enabled telemetry then
         Sim.Telemetry.span telemetry ~component:"migration" ~name:"stop_and_copy"
           ~start:downtime_started ~stop:resumed_at
           ~fields:
             [
               ("driver", "postcopy");
               ("pages_sent", string_of_int ws);
               ("bytes_sent", string_of_int ws_bytes);
             ]
           ();
       (* Phase 2: background pull of the rest; a fraction arrives as
          demand faults costing an extra round trip each. *)
       let remaining = pages - ws in
       let demand_faults =
         int_of_float (Float.round (config.demand_fault_rate *. float_of_int remaining))
       in
       let per_page_bytes = Memory.Page.size_bytes + config.page_header_bytes in
       let fault_penalty =
         Sim.Time.mul link.Net.Link.latency (2. *. float_of_int demand_faults)
       in
       (match fault with
       | None ->
         (* the historical single-shot pull - byte-identical timing *)
         let stream_time = Net.Link.transfer_time link (remaining * per_page_bytes) in
         ignore (Sim.Engine.run_for engine (Sim.Time.add stream_time fault_penalty));
         copy_range ws pages
       | Some f ->
         (* chunked pull so an outage can sever it mid-stream. The
            demand-fault penalty is spread per page so totals match the
            single-shot path when no fault fires. *)
         let penalty_per_page =
           if remaining = 0 then Sim.Time.zero
           else Sim.Time.mul fault_penalty (1. /. float_of_int remaining)
         in
         let next = ref ws in
         let rec pull ~recovering =
           if !next < pages then begin
             let hi = min pages (!next + config.pull_chunk_pages) in
             let base =
               Sim.Time.add
                 (Net.Link.transfer_time link ((hi - !next) * per_page_bytes))
                 (Sim.Time.mul penalty_per_page (float_of_int (hi - !next)))
             in
             let duration = Sim.Time.mul base (Sim.Fault.transmission_factor f) in
             match Sim.Fault.cut f ~now:(Sim.Engine.now engine) ~during:duration with
             | None ->
               ignore (Sim.Engine.run_for engine duration);
               copy_range !next hi;
               next := hi;
               pull ~recovering
             | Some (after, outage) ->
               incr outages;
               Sim.Telemetry.incr m_outages;
               stalled := Sim.Time.add !stalled outage;
               ignore (Sim.Engine.run_for engine after);
               (* the destination guest is now running on missing pages:
                  it stalls (postcopy-paused) until the channel returns *)
               let dest_was_running = Vmm.Vm.state dest = Vmm.Vm.Running in
               if dest_was_running then ignore (Vmm.Vm.pause dest);
               if config.auto_recover || recovering then begin
                 ignore (Sim.Engine.run_for engine outage);
                 if dest_was_running then ignore (Vmm.Vm.resume dest);
                 incr retransmissions;
                 Sim.Telemetry.incr m_retransmits;
                 pull ~recovering
               end
               else raise (Abort Outcome.Postcopy_paused)
           end
         in
         (try pull ~recovering:false
          with Abort Outcome.Postcopy_paused ->
            (* Park the destination and hand the monitor a resume
               closure: QEMU's postcopy-paused + migrate_recover. *)
            Vmm.Vm.set_recover_handler dest
              (Some
                 (fun () ->
                   match Vmm.Vm.resume dest with
                   | Error e -> Error e
                   | Ok () ->
                     (* further cuts during the recovery are waited out *)
                     pull ~recovering:true;
                     Ok ()));
            raise (Abort Outcome.Postcopy_paused)));
       let finished = Sim.Engine.now engine in
       Sim.Telemetry.incr m_rounds;
       Sim.Telemetry.add m_pages remaining;
       Sim.Telemetry.add m_bytes (remaining * per_page_bytes);
       Sim.Telemetry.add m_demand_faults demand_faults;
       Sim.Telemetry.observe h_round (Sim.Time.to_s (Sim.Time.diff finished resumed_at));
       if Sim.Telemetry.enabled telemetry then
         Sim.Telemetry.span telemetry ~component:"migration" ~name:"background_pull"
           ~start:resumed_at ~stop:finished
           ~fields:
             [
               ("driver", "postcopy");
               ("pages_sent", string_of_int remaining);
               ("bytes_sent", string_of_int (remaining * per_page_bytes));
               ("demand_faults", string_of_int demand_faults);
             ]
           ();
       let stats =
         {
           downtime;
           resume_time = Sim.Time.diff resumed_at started;
           background_time = Sim.Time.diff finished resumed_at;
           total_time = Sim.Time.diff finished started;
           demand_faults;
           total_pages_sent = pages;
         }
       in
       let outcome_label = if !retransmissions = 0 && !outages = 0 then "completed" else "recovered" in
       note_outcome outcome_label;
       if Sim.Telemetry.enabled telemetry then
         Sim.Telemetry.span telemetry ~component:"migration" ~name:"migrate"
           ~start:started ~stop:finished
           ~fields:
             [
               ("driver", "postcopy");
               ("outcome", outcome_label);
               ("pages_sent", string_of_int pages);
               ("demand_faults", string_of_int demand_faults);
             ]
           ();
       Ok
         (if !retransmissions = 0 && !outages = 0 then Outcome.Completed stats
          else
            Outcome.Recovered
              ( stats,
                {
                  Outcome.retransmissions = !retransmissions;
                  outages = !outages;
                  stalled = !stalled;
                } ))
     with Abort reason ->
       (match reason with
       | Outcome.Postcopy_paused ->
         (* the destination owns the guest now; the source stays paused *)
         ()
       | _ ->
         if !we_paused && Vmm.Vm.state source = Vmm.Vm.Paused then
           ignore (Vmm.Vm.resume source));
       note_outcome "aborted";
       if Sim.Telemetry.enabled telemetry then
         Sim.Telemetry.span telemetry ~component:"migration" ~name:"migrate"
           ~start:started ~stop:(Sim.Engine.now engine)
           ~fields:
             [ ("driver", "postcopy"); ("outcome", "aborted");
               ("reason", Outcome.reason_to_string reason) ]
           ();
       Ok
         (Outcome.Aborted
            {
              reason;
              source_resumed = Vmm.Vm.state source = Vmm.Vm.Running;
              retransmissions = !retransmissions;
              stalled = !stalled;
            }))
