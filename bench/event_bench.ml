(* Shared measurements for the event-engine overhaul: timing-wheel vs
   binary-heap queue throughput, and incremental vs full KSM rescan
   cost. Consumed twice - by the bechamel experiment (which also writes
   the BENCH_scan.json record) and by the queue_bench CI smoke
   executable, so both report the same workloads. *)

module type QUEUE = sig
  type 'a t
  type handle

  val create : unit -> 'a t
  val push : 'a t -> Sim.Time.t -> 'a -> handle
  val pop : 'a t -> (Sim.Time.t * 'a) option
end

let wheel = (module Sim.Event_queue : QUEUE)
let heap = (module Event_heap : QUEUE)

(* Timer periods drawn from the mix a loaded engine actually schedules:
   overwhelmingly packet-scale work (burst serialisations, link
   latencies - the only way occupancy ever reaches 1e5), a slice of
   device-scale timers (KSM wakeups, migration rounds), and a tail of
   long housekeeping timers that exercises the outer wheel levels. *)
let engine_mix_delta rng =
  let p = Sim.Rng.int rng 100 in
  if p < 90 then Sim.Rng.int rng 1_000_000 (* <= 1ms: packet scale *)
  else if p < 99 then Sim.Rng.int rng 100_000_000 (* <= 100ms: device scale *)
  else Sim.Rng.int rng 10_000_000_000 (* <= 10s: housekeeping *)

(* A thunk performing one steady-state operation on a queue prefilled
   to [pending] events: expire the earliest event and schedule a
   replacement drawn from the engine period mix - the regime an engine
   main loop lives in, where occupancy stays flat and the horizon
   advances. The replacement deltas are precomputed into a ring so the
   timed loop measures the queues, not the RNG. *)
let steady_state_op (module Q : QUEUE) ~pending =
  let q = Q.create () in
  let rng = Sim.Rng.create 11 in
  for i = 0 to pending - 1 do
    ignore (Q.push q (Sim.Time.ns (engine_mix_delta rng)) i)
  done;
  let ring = Array.init 65536 (fun _ -> Sim.Time.ns (engine_mix_delta rng)) in
  let k = ref 0 in
  let i = ref pending in
  fun () ->
    match Q.pop q with
    | None -> assert false
    | Some (t, _) ->
      incr i;
      let d = ring.(!k land 65535) in
      incr k;
      ignore (Q.push q (Sim.Time.add t d) !i)

(* ns per schedule+expire pair at a fixed occupancy; best of [repeats]
   fresh runs, so one scheduler hiccup on a shared machine does not end
   up in the recorded figure. *)
let queue_ns_per_op ?(repeats = 3) qm ~pending ~ops =
  let once () =
    let op = steady_state_op qm ~pending in
    (* skulkscope: allow wall-clock — times the simulator itself (host CPU seconds), not simulated work *)
    let t0 = Sys.time () in
    for _ = 1 to ops do
      op ()
    done;
    (* skulkscope: allow wall-clock — closes the host-clock interval opened above *)
    (Sys.time () -. t0) *. 1e9 /. float_of_int ops
  in
  let best = ref (once ()) in
  for _ = 2 to repeats do
    let ns = once () in
    if ns < !best then best := ns
  done;
  !best

let events_per_sec ns_per_op = 1e9 /. ns_per_op

(* The multi-tenant KSM population the bechamel suite also scans: 64
   spaces x 256 distinct pages, scanned to steady state. *)
let ksm_world ~incremental =
  let ctx = Sim.Ctx.create () in
  let ft = Memory.Frame_table.create ctx in
  let config =
    { Memory.Ksm.pages_to_scan = 16384; sleep = Sim.Time.ms 1.; incremental }
  in
  let ksm = Memory.Ksm.create ~config ctx ft in
  let spaces =
    Array.init 64 (fun k ->
        let s =
          Memory.Address_space.create_root ft ~name:(Printf.sprintf "s%d" k) ~pages:256
        in
        for i = 0 to 255 do
          ignore (Memory.Address_space.write s i (Memory.Page.Content.of_int ((k * 256) + i)))
        done;
        Memory.Ksm.register ksm s;
        s)
  in
  for _ = 1 to 4 do
    Memory.Ksm.scan_once ksm
  done;
  (ksm, spaces)

(* Steady-state rescan: dirty ~1% of the table between wakeups, then
   take one scan_once. Returns ns per dirtied page; the full sweep
   walks all 16384 pages per wakeup (cached checksums, but every page
   visited), the incremental sweep only the dirtied ones, so the ratio
   is the O(table) -> O(dirtied) win. The loop also pays for the writes
   themselves - identical in both modes. *)
let ksm_rescan_ns_per_dirtied_page ~incremental ~iters =
  let ksm, spaces = ksm_world ~incremental in
  let rng = Sim.Rng.create 23 in
  let dirtied_per_iter = 164 in
  let stamp = ref 1_000_000 in
  (* skulkscope: allow wall-clock — times the simulator itself (host CPU seconds), not simulated work *)
  let t0 = Sys.time () in
  for _ = 1 to iters do
    for _ = 1 to dirtied_per_iter do
      let s = spaces.(Sim.Rng.int rng 64) in
      incr stamp;
      ignore
        (Memory.Address_space.write s (Sim.Rng.int rng 256)
           (Memory.Page.Content.of_int !stamp))
    done;
    Memory.Ksm.scan_once ksm
  done;
  (* skulkscope: allow wall-clock — closes the host-clock interval opened above *)
  (Sys.time () -. t0) *. 1e9 /. float_of_int (iters * dirtied_per_iter)
