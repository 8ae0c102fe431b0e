type config = {
  working_set_pages : int;
  max_retransmits : int;
  auto_recover : bool;
}

let default_config =
  {
    working_set_pages = 2048;
    max_retransmits = 5;
    auto_recover = true;
  }

(* The share of background pages that arrive by demand fault (a network
   round-trip each) rather than the streaming pull; an outage severs the
   faulted pull at a chunk boundary. *)
let demand_fault_rate = 0.02
let pull_chunk_pages = 256

type result = {
  downtime : Sim.Time.t;
  resume_time : Sim.Time.t;
  background_time : Sim.Time.t;
  total_time : Sim.Time.t;
  demand_faults : int;
  total_pages_sent : int;
}

let migrate ?(config = default_config) ?fault ctx ~source ~dest () =
  match
    Session.start ?fault ctx ~driver:"postcopy" ~max_retransmits:config.max_retransmits ~source
      ~dest
  with
  | Error e -> Error e
  | Ok s ->
    let engine = Sim.Ctx.engine ctx in
    let m_demand_faults = Session.counter s "demand_faults_total" in
    let link = Session.link s in
    let sram = Vmm.Vm.ram source and dram = Vmm.Vm.ram dest in
    let pages = Memory.Address_space.pages sram in
    let started = Sim.Engine.now engine in
    let copy_range lo hi =
      for i = lo to hi - 1 do
        ignore (Memory.Address_space.copy ~src:sram i ~dst:dram i)
      done
    in
    (* Phase 1: stop the source, push device state + working set. A
       channel failure here is an ordinary abort - the destination has
       not taken over yet, so the source resumes and keeps the guest. *)
    Session.pause_source s;
    let ws = min config.working_set_pages pages in
    let ws_bytes = (ws * (Memory.Page.size_bytes + Session.page_header_bytes)) + (512 * 1024) in
    let downtime_started = Sim.Engine.now engine in
    Ok
      (try
         Session.transmit s ~round:1 (Net.Link.transfer_time link ws_bytes);
         let downtime = Sim.Time.diff (Sim.Engine.now engine) downtime_started in
         copy_range 0 ws;
         Session.hand_over s;
         let resumed_at = Sim.Engine.now engine in
         Session.round s ~name:"stop_and_copy" ~start:downtime_started ~pages:ws
           ~bytes:ws_bytes ();
         (* Phase 2: background pull of the rest; a fraction arrives as
            demand faults costing an extra round trip each. *)
         let remaining = pages - ws in
         let demand_faults =
           int_of_float (Float.round (demand_fault_rate *. float_of_int remaining))
         in
         let per_page_bytes = Memory.Page.size_bytes + Session.page_header_bytes in
         let fault_penalty =
           Sim.Time.mul link.Net.Link.latency (2. *. float_of_int demand_faults)
         in
         (match fault with
         | None ->
           (* the single-shot pull - byte-identical timing *)
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
               let hi = min pages (!next + pull_chunk_pages) in
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
                 Session.note_outage s outage;
                 ignore (Sim.Engine.run_for engine after);
                 (* the destination guest is now running on missing pages:
                    it stalls (postcopy-paused) until the channel returns *)
                 let dest_was_running = Vmm.Vm.state dest = Vmm.Vm.Running in
                 if dest_was_running then ignore (Vmm.Vm.pause dest);
                 if config.auto_recover || recovering then begin
                   ignore (Sim.Engine.run_for engine outage);
                   if dest_was_running then ignore (Vmm.Vm.resume dest);
                   Session.note_retransmit s;
                   pull ~recovering
                 end
                 else raise (Session.Abort Outcome.Postcopy_paused)
             end
           in
           (try pull ~recovering:false
            with Session.Abort Outcome.Postcopy_paused ->
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
              raise (Session.Abort Outcome.Postcopy_paused)));
         let finished = Sim.Engine.now engine in
         Sim.Telemetry.add m_demand_faults demand_faults;
         Session.round s ~name:"background_pull" ~start:resumed_at ~pages:remaining
           ~bytes:(remaining * per_page_bytes)
           ~fields:[ ("demand_faults", string_of_int demand_faults) ]
           ();
         Session.finish s
           ~fields:
             [
               ("pages_sent", string_of_int pages);
               ("demand_faults", string_of_int demand_faults);
             ]
           {
             downtime;
             resume_time = Sim.Time.diff resumed_at started;
             background_time = Sim.Time.diff finished resumed_at;
             total_time = Sim.Time.diff finished started;
             demand_faults;
             total_pages_sent = pages;
           }
       with Session.Abort reason -> Session.abort s reason)
