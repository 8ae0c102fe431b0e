let working_set_mb = 96
let ops_per_second = 8000.
let dirty_pages_per_second = 2000.

let region env =
  let total = Memory.Address_space.pages env.Exec_env.ram in
  let length = min total (working_set_mb * 1024 * 1024 / Memory.Page.size_bytes) in
  let offset = min (total - length) (total / 2) in
  (offset, length)

let background () =
  let tick = Sim.Time.ms 50. in
  let carry = ref 0. in
  let rate = ref None in
  {
    Background.name = "filebench";
    tick;
    action =
      (fun env ~tick_index:_ ->
        let dirty_rate =
          match !rate with
          | Some r -> r
          | None ->
            let r =
              dirty_pages_per_second
              *. Sim.Rng.lognormal_noise env.Exec_env.rng ~rsd:0.03
            in
            rate := Some r;
            r
        in
        let per_tick = dirty_rate *. Sim.Time.to_s tick in
        let offset, length = region env in
        carry := !carry +. per_tick;
        let n = int_of_float !carry in
        carry := !carry -. float_of_int n;
        Exec_env.dirty_region env ~offset ~length n;
        match env.Exec_env.vm with
        | Some vm ->
          let io = Vmm.Vm.io vm in
          let ops = int_of_float (ops_per_second *. Sim.Time.to_s tick) in
          io.Vmm.Vm.block_read_ops <- io.Vmm.Vm.block_read_ops + (ops / 2);
          io.Vmm.Vm.block_write_ops <- io.Vmm.Vm.block_write_ops + (ops / 2)
        | None -> ());
  }
