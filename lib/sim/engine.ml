type event_handle = Event_queue.handle

type t = {
  mutable clock : Time.t;
  queue : (unit -> unit) Event_queue.t;
  root_rng : Rng.t;
  mutable processed : int;
}

exception Simulation_deadlock of string

let create ?(seed = 42) () =
  { clock = Time.zero; queue = Event_queue.create (); root_rng = Rng.create seed; processed = 0 }

let now t = t.clock
let fork_rng t = Rng.split t.root_rng

let schedule_at t when_ f =
  if Time.(when_ < t.clock) then
    invalid_arg
      (Format.asprintf "Engine.schedule_at: %a is before now (%a)" Time.pp when_ Time.pp t.clock);
  Event_queue.push t.queue when_ f

let schedule_after t delay f = schedule_at t (Time.add t.clock delay) f
let cancel t h = Event_queue.cancel t.queue h

let periodic t ~every f =
  let rec tick () = if f () then ignore (schedule_after t every tick) in
  ignore (schedule_after t every tick)

let step t =
  match Event_queue.pop t.queue with
  | None -> false
  | Some (time, f) ->
    t.clock <- Time.max t.clock time;
    t.processed <- t.processed + 1;
    f ();
    true

let run ?(until = Time.infinity) t =
  let rec loop () =
    match Event_queue.peek_time t.queue with
    | None -> ()
    | Some next when Time.(next > until) -> ()
    | Some _ ->
      ignore (step t);
      loop ()
  in
  loop ();
  if not (Time.is_infinite until) && Time.(t.clock < until) then t.clock <- until;
  t.clock

let run_for t d = run ~until:(Time.add t.clock d) t

let events_processed t = t.processed
