(* [derate_per_level] is the goodput kept per virtio traversal. *)
let link = Net.Link.lan_1gbe
let derate_per_level = 0.985
let transfer_bytes = 128 * 1024 * 1024

type result = {
  throughput_mbit_s : float;
  elapsed : Sim.Time.t;
}

let pow base n =
  let rec go acc n = if n <= 0 then acc else go (acc *. base) (n - 1) in
  go 1.0 n

(* The paper's run-to-run jitter per level; deeper levels keep L2's. *)
let level_rsd level =
  match Vmm.Level.to_int level with 0 -> 0.0111 | 1 -> 0.1032 | _ -> 0.0396

let run env =
  let level = env.Exec_env.level in
  (* The paper's RSDs are run-to-run, so the noise is drawn once per run
     (scheduling, host interference) and applied to the whole stream -
     per-chunk jitter would average itself away over thousands of
     chunks. *)
  let rsd = level_rsd level in
  let run_noise = Sim.Rng.lognormal_noise env.Exec_env.rng ~rsd in
  let derate = pow derate_per_level (Vmm.Level.to_int level) *. run_noise in
  let flow =
    Net.Flow.run env.Exec_env.ctx ~link ~derate ~rng:env.Exec_env.rng
      ~bytes:transfer_bytes ()
  in
  (match env.Exec_env.vm with
  | Some vm ->
    let io = Vmm.Vm.io vm in
    io.Vmm.Vm.net_tx_bytes <- io.Vmm.Vm.net_tx_bytes + transfer_bytes
  | None -> ());
  { throughput_mbit_s = flow.Net.Flow.throughput_mbit_s; elapsed = flow.Net.Flow.elapsed }

let background () =
  let tick = Sim.Time.ms 100. in
  (* Socket buffers recycle a small ring of pages; the dirty footprint
     of a sender is tiny compared to its traffic. *)
  let ring_pages = 512 in
  {
    Background.name = "netperf";
    tick;
    action =
      (fun env ~tick_index:_ ->
        let bytes_per_tick =
          int_of_float (link.Net.Link.bandwidth_bytes_per_s *. Sim.Time.to_s tick)
        in
        Exec_env.dirty_region env ~offset:0 ~length:ring_pages 16;
        match env.Exec_env.vm with
        | Some vm ->
          let io = Vmm.Vm.io vm in
          io.Vmm.Vm.net_tx_bytes <- io.Vmm.Vm.net_tx_bytes + bytes_per_tick
        | None -> ());
  }
