type spec = {
  name : string;
  tick : Sim.Time.t;
  action : Exec_env.t -> tick_index:int -> unit;
}

type handle = {
  mutable running : bool;
  mutable tick_count : int;
  mutable throttled_ticks : int;
}

let start env spec =
  let handle = { running = true; tick_count = 0; throttled_ticks = 0 } in
  let rng = Sim.Rng.split env.Exec_env.rng in
  Sim.Engine.periodic env.Exec_env.engine ~every:spec.tick (fun () ->
      if handle.running then begin
        (* a paused/stopped guest executes nothing, and a throttled vCPU
           (auto-converge) loses a fraction of its time slices *)
        let vm_running =
          match env.Exec_env.vm with
          | Some vm -> Vmm.Vm.state vm = Vmm.Vm.Running
          | None -> true
        in
        let throttle =
          match env.Exec_env.vm with Some vm -> Vmm.Vm.cpu_throttle vm | None -> 0.
        in
        if not vm_running then ()
        else if throttle > 0. && Sim.Rng.float rng 1. < throttle then
          handle.throttled_ticks <- handle.throttled_ticks + 1
        else begin
          spec.action env ~tick_index:handle.tick_count;
          handle.tick_count <- handle.tick_count + 1
        end
      end;
      handle.running);
  handle

let stop h = h.running <- false
let ticks h = h.tick_count
let throttled_ticks h = h.throttled_ticks
