(* One migration's QEMU state machine, shared by both drivers: the
   preconditions, the derated channel, the faulted transmit with its
   retry/backoff policy, the [migration_*] telemetry and the outcome
   accounting (completed / recovered / aborted with source-resume). The
   drivers keep only their own phases. *)

exception Abort of Outcome.reason

type t = {
  engine : Sim.Engine.t;
  driver : string;
  fault : Sim.Fault.t option;
  max_retransmits : int;
  source : Vmm.Vm.t;
  dest : Vmm.Vm.t;
  link : Net.Link.t;
  telemetry : Sim.Telemetry.t option;
  started : Sim.Time.t;
  m_rounds : Sim.Telemetry.counter;
  m_pages : Sim.Telemetry.counter;
  m_bytes : Sim.Telemetry.counter;
  m_retransmits : Sim.Telemetry.counter;
  m_outages : Sim.Telemetry.counter;
  h_round : Sim.Telemetry.histogram;
  mutable retransmissions : int;
  mutable outages : int;
  mutable stalled : Sim.Time.t;
  mutable we_paused : bool;
}

let pow base n =
  let rec go acc n = if n <= 0 then acc else go (acc *. base) (n - 1) in
  go 1.0 n

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

(* Receiving into a nested VM's RAM costs extra exits: each destination
   nesting level beyond L1 keeps [nested_dest_derate] of the channel's
   bandwidth. *)
let page_header_bytes = 8
let nested_dest_derate = 0.82

let start ?fault ctx ~driver ~max_retransmits ~source ~dest =
  match validate ~source ~dest with
  | Error e -> Error e
  | Ok () ->
    let telemetry = Vmm.Vm.telemetry source in
    let labels = [ ("driver", driver) ] in
    let mig name = Sim.Telemetry.counter telemetry ~labels ~component:"migration" name in
    (* The channel is derated once per destination nesting level beyond
       an ordinary L1 guest (writing received pages into a nested VM's
       RAM traps to the levels below). *)
    let extra = max 0 (Vmm.Level.to_int (Vmm.Vm.level dest) - 1) in
    let engine = Sim.Ctx.engine ctx in
    Ok
      {
        engine;
        driver;
        fault;
        max_retransmits;
        source;
        dest;
        link = Net.Link.scale_bandwidth Net.Link.migration_loopback (pow nested_dest_derate extra);
        telemetry;
        started = Sim.Engine.now engine;
        m_rounds = mig "rounds_total";
        m_pages = mig "pages_sent_total";
        m_bytes = mig "bytes_sent_total";
        m_retransmits = mig "retransmits_total";
        m_outages = mig "outages_total";
        h_round =
          Sim.Telemetry.histogram telemetry ~labels ~component:"migration"
            ~buckets:[ 0.001; 0.01; 0.1; 1.; 10.; 100. ]
            "round_duration_seconds";
        retransmissions = 0;
        outages = 0;
        stalled = Sim.Time.zero;
        we_paused = false;
      }

let link t = t.link

let counter t name =
  Sim.Telemetry.counter t.telemetry ~labels:[ ("driver", t.driver) ] ~component:"migration" name

let note_outage t outage =
  t.outages <- t.outages + 1;
  Sim.Telemetry.incr t.m_outages;
  t.stalled <- Sim.Time.add t.stalled outage

let note_retransmit t =
  t.retransmissions <- t.retransmissions + 1;
  Sim.Telemetry.incr t.m_retransmits

let wait t d = ignore (Sim.Engine.run_for t.engine d)

(* Put [base] worth of data on the wire. Without an injector this is
   exactly [run_for base] - the assume-success path, same virtual time,
   zero extra RNG draws. With one, the transmission is jittered/degraded
   and may be severed; a severed transmission waits out the outage,
   backs off (exponentially from [backoff], when given) and retransmits,
   up to [max_retransmits] times. *)
let transmit ?backoff t ~round base =
  match t.fault with
  | None -> wait t base
  | Some f ->
    let rec attempt retry =
      let duration = Sim.Time.mul base (Sim.Fault.transmission_factor f) in
      match Sim.Fault.cut f ~now:(Sim.Engine.now t.engine) ~during:duration with
      | None -> wait t duration
      | Some (after, outage) ->
        note_outage t outage;
        (* the wire died [after] into the transmission; sit out the
           repair, then back off before the retransmit *)
        wait t (Sim.Time.add after outage);
        if retry >= t.max_retransmits then raise (Abort (Outcome.Channel_down round));
        note_retransmit t;
        Option.iter
          (fun b ->
            let backoff = Sim.Time.mul b (pow 2. retry) in
            t.stalled <- Sim.Time.add t.stalled backoff;
            wait t backoff)
          backoff;
        attempt (retry + 1)
    in
    attempt 0

let pause_source t =
  match Vmm.Vm.state t.source with
  | Vmm.Vm.Running -> (
    t.we_paused <- true;
    match Vmm.Vm.pause t.source with
    | Ok () -> ()
    | Error e -> invalid_arg (t.driver ^ ": pausing source: " ^ e))
  | Vmm.Vm.Paused | Vmm.Vm.Created | Vmm.Vm.Incoming | Vmm.Vm.Stopped -> ()

(* The destination takes over the guest's identity. *)
let hand_over t =
  Vmm.Vm.adopt_guest_state t.dest ~from:t.source;
  match Vmm.Vm.complete_incoming t.dest with
  | Ok () -> ()
  | Error e -> invalid_arg (t.driver ^ ": completing incoming: " ^ e)

let round t ~name ?round ~start ~pages ~bytes ?(fields = []) () =
  let stop = Sim.Engine.now t.engine in
  Sim.Telemetry.incr t.m_rounds;
  Sim.Telemetry.add t.m_pages pages;
  Sim.Telemetry.add t.m_bytes bytes;
  Sim.Telemetry.observe t.h_round (Sim.Time.to_s (Sim.Time.diff stop start));
  if Sim.Telemetry.enabled t.telemetry then
    Sim.Telemetry.span t.telemetry ~component:"migration" ~name ~start ~stop
      ~fields:
        ((("driver", t.driver)
         :: Option.fold ~none:[] ~some:(fun r -> [ ("round", string_of_int r) ]) round)
        @ (("pages_sent", string_of_int pages) :: ("bytes_sent", string_of_int bytes) :: fields))
      ()

let note_outcome t outcome fields =
  Sim.Telemetry.incr
    (Sim.Telemetry.counter t.telemetry
       ~labels:[ ("driver", t.driver); ("outcome", outcome) ]
       ~component:"migration" "outcomes_total");
  if Sim.Telemetry.enabled t.telemetry then
    Sim.Telemetry.span t.telemetry ~component:"migration" ~name:"migrate" ~start:t.started
      ~stop:(Sim.Engine.now t.engine)
      ~fields:(("driver", t.driver) :: ("outcome", outcome) :: fields)
      ()

let finish t ~fields stats =
  let clean = t.retransmissions = 0 && t.outages = 0 in
  note_outcome t (if clean then "completed" else "recovered") fields;
  if clean then Outcome.Completed stats
  else
    Outcome.Recovered
      ( stats,
        { Outcome.retransmissions = t.retransmissions; outages = t.outages; stalled = t.stalled } )

(* QEMU failure semantics: the migration is torn down and the source
   resumes (it still owns the guest) unless the destination already took
   over (postcopy-paused); the destination never adopts the identity. *)
let abort t reason =
  Vmm.Vm.set_cpu_throttle t.source 0.;
  (match reason with
  | Outcome.Postcopy_paused -> ()
  | Outcome.Channel_down _ | Outcome.Cancelled _ ->
    if t.we_paused && Vmm.Vm.state t.source = Vmm.Vm.Paused then
      ignore (Vmm.Vm.resume t.source));
  note_outcome t "aborted" [ ("reason", Outcome.reason_to_string reason) ];
  Outcome.Aborted
    {
      reason;
      source_resumed = Vmm.Vm.state t.source = Vmm.Vm.Running;
      retransmissions = t.retransmissions;
      stalled = t.stalled;
    }
