type config = {
  max_downtime : Sim.Time.t;
  max_rounds : int;
  zero_page_optimization : bool;
  auto_converge : bool;
  xbzrle : bool;
  max_retransmits : int;
}

let default_config =
  {
    max_downtime = Sim.Time.ms 300.;
    max_rounds = 50;
    zero_page_optimization = false;
    auto_converge = false;
    xbzrle = false;
    max_retransmits = 5;
  }

(* An XBZRLE delta's size as a fraction of a full page, and the base of
   the exponential backoff between retransmissions. *)
let xbzrle_ratio = 0.3
let retransmit_backoff = Sim.Time.ms 100.

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
    pages.page_count * (Session.page_header_bytes + Memory.Page.size_bytes)
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
            int_of_float (Float.round (xbzrle_ratio *. float_of_int Memory.Page.size_bytes))
          else Memory.Page.size_bytes
        in
        acc + Session.page_header_bytes + payload)
      0

(* Copy a round's pages and record each as held by the destination. *)
let copy_pages ~source ~dest ~sent_before pages =
  let sram = Vmm.Vm.ram source and dram = Vmm.Vm.ram dest in
  pages.fold
    (fun () i ->
      ignore (Memory.Address_space.copy ~src:sram i ~dst:dram i);
      Memory.Dirty.set sent_before i)
    ()

let migrate ?(config = default_config) ?fault ctx ~source ~dest () =
  match
    Session.start ?fault ctx ~driver:"precopy" ~max_retransmits:config.max_retransmits ~source
      ~dest
  with
  | Error e -> Error e
  | Ok s ->
    let engine = Sim.Ctx.engine ctx in
    let link = Session.link s in
    let sram = Vmm.Vm.ram source in
    let dirty = Memory.Address_space.dirty sram in
    (* drop any stale cancel left over from before this migration *)
    ignore (Vmm.Vm.take_migrate_cancel source);
    let check_cancel round =
      if Vmm.Vm.take_migrate_cancel source then
        raise (Session.Abort (Outcome.Cancelled round))
    in
    let transmit ~round base = Session.transmit s ~backoff:retransmit_backoff ~round base in
    (* pages the destination has already received at least once - the
       XBZRLE cache's reach *)
    let sent_before = Memory.Dirty.create (Memory.Address_space.pages sram) in
    let started = Sim.Engine.now engine in
    (* Pages that can move within the downtime budget. *)
    let downtime_page_budget =
      let per_page =
        Net.Link.transfer_time link (Memory.Page.size_bytes + Session.page_header_bytes)
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
      Session.round s ~name:"round" ~round ~start:round_started ~pages:pages.page_count ~bytes
        ~fields:[ ("dirtied_during", string_of_int dirtied_during) ]
        ();
      { round; pages_sent = pages.page_count; bytes_sent = bytes; duration; dirtied_during }
    in
    Ok
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
         Session.pause_source s;
         Memory.Dirty.drain dirty ~into:round_set;
         let final_set = dirty_pages round_set in
         let final_bytes = wire_bytes config ~source ~sent_before final_set in
         let device_state_bytes = 512 * 1024 in
         let downtime_started = Sim.Engine.now engine in
         transmit ~round:final_round
           (Net.Link.transfer_time link (final_bytes + device_state_bytes));
         let downtime = Sim.Time.diff (Sim.Engine.now engine) downtime_started in
         copy_pages ~source ~dest ~sent_before final_set;
         Session.round s ~name:"stop_and_copy" ~round:final_round ~start:downtime_started
           ~pages:final_set.page_count ~bytes:final_bytes ();
         Session.hand_over s;
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
         Session.finish s
           ~fields:
             [
               ("rounds", string_of_int (List.length rounds));
               ("pages_sent", string_of_int total_pages_sent);
               ("bytes_sent", string_of_int total_bytes_sent);
             ]
           {
             rounds;
             total_pages_sent;
             total_bytes_sent;
             downtime;
             total_time = Sim.Time.diff (Sim.Engine.now engine) started;
             converged;
             max_throttle = !max_throttle;
           }
       with Session.Abort reason -> Session.abort s reason)
