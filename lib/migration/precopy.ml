type config = {
  link : Net.Link.t;
  max_downtime : Sim.Time.t;
  max_rounds : int;
  page_header_bytes : int;
  nested_dest_derate : float;
  zero_page_optimization : bool;
  auto_converge : bool;
  xbzrle : bool;
  xbzrle_ratio : float;
  round_timeout : Sim.Time.t option;
  max_retransmits : int;
  retransmit_backoff : Sim.Time.t;
}

let default_config =
  {
    link = Net.Link.migration_loopback;
    max_downtime = Sim.Time.ms 300.;
    max_rounds = 50;
    page_header_bytes = 8;
    nested_dest_derate = 0.82;
    zero_page_optimization = false;
    auto_converge = false;
    xbzrle = false;
    xbzrle_ratio = 0.3;
    round_timeout = None;
    max_retransmits = 5;
    retransmit_backoff = Sim.Time.ms 100.;
  }

type round_stat = {
  round : int;
  pages_sent : int;
  bytes_sent : int;
  duration : Sim.Time.t;
  dirtied_during : int;
}

type result = {
  rounds : round_stat list;
  total_pages_sent : int;
  total_bytes_sent : int;
  downtime : Sim.Time.t;
  total_time : Sim.Time.t;
  converged : bool;
  max_throttle : float;
}

let pow base n =
  let rec go acc n = if n <= 0 then acc else go (acc *. base) (n - 1) in
  go 1.0 n

(* The effective channel: derated once per destination nesting level
   beyond an ordinary L1 guest (writing received pages into a nested
   VM's RAM traps to the levels below). *)
let effective_link config ~dest_level =
  let extra = max 0 (Vmm.Level.to_int dest_level - 1) in
  Net.Link.scale_bandwidth config.link (pow config.nested_dest_derate extra)

let validate ~source ~dest =
  let open Vmm in
  if not (List.mem (Vm.state source) [ Vm.Running; Vm.Paused ]) then
    Error
      (Printf.sprintf "source %s is %s, not running/paused" (Vm.name source)
         (Vm.state_to_string (Vm.state source)))
  else if Vm.state dest <> Vm.Incoming then
    Error
      (Printf.sprintf "destination %s is %s, not in incoming state" (Vm.name dest)
         (Vm.state_to_string (Vm.state dest)))
  else
    match
      Qemu_config.migration_compatible ~source:(Vm.config source) ~dest:(Vm.config dest)
    with
    | Error e -> Error ("incompatible configurations: " ^ e)
    | Ok () ->
      let sp = Memory.Address_space.pages (Vm.ram source) in
      let dp = Memory.Address_space.pages (Vm.ram dest) in
      if sp <> dp then Error (Printf.sprintf "RAM size mismatch: %d vs %d pages" sp dp)
      else Ok ()

(* A round's page set, exposed as a fold so dirty rounds can walk a
   drained bitmap directly instead of materialising an index list. *)
type page_set = {
  page_count : int;
  fold : 'a. ('a -> int -> 'a) -> 'a -> 'a;
}

let all_pages ram =
  let n = Memory.Address_space.pages ram in
  {
    page_count = n;
    fold =
      (fun f init ->
        let acc = ref init in
        for i = 0 to n - 1 do
          acc := f !acc i
        done;
        !acc);
  }

let dirty_pages bitmap =
  {
    page_count = Memory.Dirty.dirty_count bitmap;
    fold = (fun f init -> Memory.Dirty.fold_dirty bitmap f init);
  }

(* Without zero-page detection or XBZRLE every page costs a full frame
   plus its header, so the round's size is a product, not a walk. *)
let wire_bytes config ~source ~sent_before pages =
  if not (config.zero_page_optimization || config.xbzrle) then
    pages.page_count * (config.page_header_bytes + Memory.Page.size_bytes)
  else
    let ram = Vmm.Vm.ram source in
    pages.fold
      (fun acc i ->
        let payload =
          if
            config.zero_page_optimization
            && Memory.Page.Content.is_zero (Memory.Address_space.read ram i)
          then 0
          else if config.xbzrle && Memory.Dirty.is_dirty sent_before i then
            (* destination holds this page's previous version: ship a delta *)
            int_of_float (Float.round (config.xbzrle_ratio *. float_of_int Memory.Page.size_bytes))
          else Memory.Page.size_bytes
        in
        acc + config.page_header_bytes + payload)
      0

(* Copy a round's pages and record each as held by the destination. *)
let copy_pages ~source ~dest ~sent_before pages =
  let sram = Vmm.Vm.ram source and dram = Vmm.Vm.ram dest in
  pages.fold
    (fun () i ->
      ignore (Memory.Address_space.copy ~src:sram i ~dst:dram i);
      Memory.Dirty.set sent_before i)
    ()

(* Channel failure mid-migration; carries the QEMU-style abort reason. *)
exception Abort of Outcome.reason

let migrate ?(config = default_config) ?fault ctx ~source ~dest () =
  let engine = Sim.Ctx.engine ctx in
  match validate ~source ~dest with
  | Error e -> Error e
  | Ok () ->
    let telemetry = Vmm.Vm.telemetry source in
    let driver_label = [ ("driver", "precopy") ] in
    let mig name =
      Sim.Telemetry.counter telemetry ~labels:driver_label ~component:"migration" name
    in
    let m_rounds = mig "rounds_total" in
    let m_pages = mig "pages_sent_total" in
    let m_bytes = mig "bytes_sent_total" in
    let m_retransmits = mig "retransmits_total" in
    let m_outages = mig "outages_total" in
    let h_round =
      Sim.Telemetry.histogram telemetry ~labels:driver_label ~component:"migration"
        ~buckets:[ 0.001; 0.01; 0.1; 1.; 10.; 100. ]
        "round_duration_seconds"
    in
    let note_outcome outcome =
      Sim.Telemetry.incr
        (Sim.Telemetry.counter telemetry
           ~labels:[ ("driver", "precopy"); ("outcome", outcome) ]
           ~component:"migration" "outcomes_total")
    in
    let link = effective_link config ~dest_level:(Vmm.Vm.level dest) in
    let sram = Vmm.Vm.ram source in
    let dirty = Memory.Address_space.dirty sram in
    (* drop any stale cancel left over from before this migration *)
    ignore (Vmm.Vm.take_migrate_cancel source);
    let retransmissions = ref 0 and outages = ref 0 in
    let stalled = ref Sim.Time.zero in
    let we_paused = ref false in
    let check_cancel round =
      if Vmm.Vm.take_migrate_cancel source then raise (Abort (Outcome.Cancelled round))
    in
    (* Put [base] worth of data on the wire. Without an injector this is
       exactly [run_for base] - the historical assume-success path, same
       virtual time, zero extra RNG draws. With one, the transmission is
       jittered/degraded and may be severed; a severed transmission
       waits out the outage, backs off exponentially, and retransmits,
       up to [max_retransmits] times and bounded by [round_timeout]. *)
    let transmit ~round base =
      match fault with
      | None -> ignore (Sim.Engine.run_for engine base)
      | Some f ->
        let deadline =
          Option.map (fun d -> Sim.Time.add (Sim.Engine.now engine) d) config.round_timeout
        in
        let check_deadline () =
          match deadline with
          | Some d when Sim.Time.(Sim.Engine.now engine > d) ->
            raise (Abort (Outcome.Round_timeout round))
          | Some _ | None -> ()
        in
        let rec attempt retry =
          let duration = Sim.Time.mul base (Sim.Fault.transmission_factor f) in
          match Sim.Fault.cut f ~now:(Sim.Engine.now engine) ~during:duration with
          | None -> ignore (Sim.Engine.run_for engine duration)
          | Some (after, outage) ->
            incr outages;
            Sim.Telemetry.incr m_outages;
            stalled := Sim.Time.add !stalled outage;
            (* the wire died [after] into the transmission; sit out the
               repair, then back off before the retransmit *)
            ignore (Sim.Engine.run_for engine (Sim.Time.add after outage));
            if retry >= config.max_retransmits then raise (Abort (Outcome.Channel_down round));
            check_deadline ();
            incr retransmissions;
            Sim.Telemetry.incr m_retransmits;
            let backoff = Sim.Time.mul config.retransmit_backoff (pow 2. retry) in
            stalled := Sim.Time.add !stalled backoff;
            ignore (Sim.Engine.run_for engine backoff);
            check_deadline ();
            attempt (retry + 1)
        in
        attempt 0
    in
    (* pages the destination has already received at least once - the
       XBZRLE cache's reach *)
    let sent_before = Memory.Dirty.create (Memory.Address_space.pages sram) in
    let started = Sim.Engine.now engine in
    (* Pages that can move within the downtime budget. *)
    let downtime_page_budget =
      let per_page =
        Net.Link.transfer_time link (Memory.Page.size_bytes + config.page_header_bytes)
      in
      let per_page_s = Sim.Time.to_s per_page -. Sim.Time.to_s link.Net.Link.latency in
      if per_page_s <= 0. then max_int
      else int_of_float (Sim.Time.to_s config.max_downtime /. per_page_s)
    in
    (* Scratch bitmap a round's dirty set is drained into, so the live
       bitmap can keep collecting re-dirtying while the round runs. *)
    let round_set = Memory.Dirty.create (Memory.Address_space.pages sram) in
    let run_round ~round pages =
      let bytes = wire_bytes config ~source ~sent_before pages in
      let round_started = Sim.Engine.now engine in
      (* Let the guest (and everything else) run while the data is on
         the wire: this is where re-dirtying happens. *)
      transmit ~round (Net.Link.transfer_time link bytes);
      let duration = Sim.Time.diff (Sim.Engine.now engine) round_started in
      copy_pages ~source ~dest ~sent_before pages;
      let dirtied_during = Memory.Dirty.dirty_count dirty in
      Sim.Telemetry.incr m_rounds;
      Sim.Telemetry.add m_pages pages.page_count;
      Sim.Telemetry.add m_bytes bytes;
      Sim.Telemetry.observe h_round (Sim.Time.to_s duration);
      if Sim.Telemetry.enabled telemetry then
        Sim.Telemetry.span telemetry ~component:"migration" ~name:"round"
          ~start:round_started ~stop:(Sim.Engine.now engine)
          ~fields:
            [
              ("driver", "precopy");
              ("round", string_of_int round);
              ("pages_sent", string_of_int pages.page_count);
              ("bytes_sent", string_of_int bytes);
              ("dirtied_during", string_of_int dirtied_during);
            ]
          ();
      { round; pages_sent = pages.page_count; bytes_sent = bytes; duration; dirtied_during }
    in
    (try
       (* Round 1: the full RAM; later rounds: what got dirtied. *)
       Memory.Dirty.clear dirty;
       let first = run_round ~round:1 (all_pages sram) in
       let max_throttle = ref 0. in
       let throttle_source round =
         (* QEMU's schedule: engage at 20 %, then +10 % per further
            non-converging round, capped at 99 % *)
         if config.auto_converge && round >= 3 then begin
           let step = 0.2 +. (0.1 *. float_of_int (round - 3)) in
           let value = Float.min 0.99 step in
           Vmm.Vm.set_cpu_throttle source value;
           if value > !max_throttle then max_throttle := value
         end
       in
       let rec iterate acc round =
         check_cancel round;
         let dirty_now = Memory.Dirty.dirty_count dirty in
         if dirty_now <= downtime_page_budget then (acc, true)
         else if round > config.max_rounds then (acc, false)
         else begin
           throttle_source round;
           Memory.Dirty.drain dirty ~into:round_set;
           let stat = run_round ~round (dirty_pages round_set) in
           iterate (stat :: acc) (round + 1)
         end
       in
       let later, converged = iterate [] 2 in
       let final_round = List.length later + 2 in
       Vmm.Vm.set_cpu_throttle source 0.;
       (* Stop-and-copy: pause the source, move the final dirty set. *)
       let pause_result =
         match Vmm.Vm.state source with
         | Vmm.Vm.Running ->
           we_paused := true;
           Vmm.Vm.pause source
         | Vmm.Vm.Paused | Vmm.Vm.Created | Vmm.Vm.Incoming | Vmm.Vm.Stopped -> Ok ()
       in
       (match pause_result with
       | Ok () -> ()
       | Error e -> invalid_arg ("precopy: pausing source: " ^ e));
       Memory.Dirty.drain dirty ~into:round_set;
       let final_set = dirty_pages round_set in
       let final_bytes = wire_bytes config ~source ~sent_before final_set in
       let device_state_bytes = 512 * 1024 in
       let downtime_started = Sim.Engine.now engine in
       transmit ~round:final_round
         (Net.Link.transfer_time link (final_bytes + device_state_bytes));
       let downtime = Sim.Time.diff (Sim.Engine.now engine) downtime_started in
       copy_pages ~source ~dest ~sent_before final_set;
       Sim.Telemetry.incr m_rounds;
       Sim.Telemetry.add m_pages final_set.page_count;
       Sim.Telemetry.add m_bytes final_bytes;
       Sim.Telemetry.observe h_round (Sim.Time.to_s downtime);
       if Sim.Telemetry.enabled telemetry then
         Sim.Telemetry.span telemetry ~component:"migration" ~name:"stop_and_copy"
           ~start:downtime_started ~stop:(Sim.Engine.now engine)
           ~fields:
             [
               ("driver", "precopy");
               ("round", string_of_int final_round);
               ("pages_sent", string_of_int final_set.page_count);
               ("bytes_sent", string_of_int final_bytes);
             ]
           ();
       (* The destination takes over the guest's identity. *)
       Vmm.Vm.adopt_guest_state dest ~from:source;
       (match Vmm.Vm.complete_incoming dest with
       | Ok () -> ()
       | Error e -> invalid_arg ("precopy: completing incoming: " ^ e));
       let rounds =
         first :: List.rev later
         @ [
             {
               round = final_round;
               pages_sent = final_set.page_count;
               bytes_sent = final_bytes;
               duration = downtime;
               dirtied_during = 0;
             };
           ]
       in
       let total_pages_sent = List.fold_left (fun a r -> a + r.pages_sent) 0 rounds in
       let total_bytes_sent = List.fold_left (fun a r -> a + r.bytes_sent) 0 rounds in
       let stats =
         {
           rounds;
           total_pages_sent;
           total_bytes_sent;
           downtime;
           total_time = Sim.Time.diff (Sim.Engine.now engine) started;
           converged;
           max_throttle = !max_throttle;
         }
       in
       let outcome_label = if !retransmissions = 0 && !outages = 0 then "completed" else "recovered" in
       note_outcome outcome_label;
       if Sim.Telemetry.enabled telemetry then
         Sim.Telemetry.span telemetry ~component:"migration" ~name:"migrate"
           ~start:started ~stop:(Sim.Engine.now engine)
           ~fields:
             [
               ("driver", "precopy");
               ("outcome", outcome_label);
               ("rounds", string_of_int (List.length rounds));
               ("pages_sent", string_of_int total_pages_sent);
               ("bytes_sent", string_of_int total_bytes_sent);
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
       (* QEMU failure semantics: the migration is torn down, the source
          resumes (it still owns the guest), the destination stays
          parked in [Incoming] and never adopts the identity. *)
       Vmm.Vm.set_cpu_throttle source 0.;
       if !we_paused && Vmm.Vm.state source = Vmm.Vm.Paused then
         ignore (Vmm.Vm.resume source);
       note_outcome "aborted";
       if Sim.Telemetry.enabled telemetry then
         Sim.Telemetry.span telemetry ~component:"migration" ~name:"migrate"
           ~start:started ~stop:(Sim.Engine.now engine)
           ~fields:
             [ ("driver", "precopy"); ("outcome", "aborted");
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
