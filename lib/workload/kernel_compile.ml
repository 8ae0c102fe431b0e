(* Per compile unit: bare-metal CPU, the share of it a ccache hit
   leaves, I/O exits, fresh page faults that L0 must emulate at L2, and
   object-file/page-cache pages written. *)
let compile_units = 2600
let unit_cpu = Sim.Time.ms 330.
let ccache_hit_factor = 0.26
let unit_sw_exits = 50.
let unit_hw_faults = 58_000.
let dirty_pages_per_unit = 8

let unit_op ~ccache =
  let cpu = if ccache then Sim.Time.mul unit_cpu ccache_hit_factor else unit_cpu in
  Vmm.Cost_model.op ~name:"compile-unit" ~cpu ~sw_exits:unit_sw_exits
    ~hw_faults_l2:unit_hw_faults ~residual_l1:1.02 ()

let run ?(ccache_at_l0 = true) env =
  let ccache = ccache_at_l0 && Vmm.Level.equal env.Exec_env.level Vmm.Level.l0 in
  let op = unit_op ~ccache in
  let cursor = ref 0 in
  let batch = 100 in
  let rec go remaining elapsed =
    if remaining <= 0 then elapsed
    else begin
      let n = min batch remaining in
      let d = Exec_env.consume env op n in
      Exec_env.dirty_sequential env ~cursor (dirty_pages_per_unit * n);
      (match env.Exec_env.vm with
      | Some vm ->
        let io = Vmm.Vm.io vm in
        io.Vmm.Vm.block_read_ops <- io.Vmm.Vm.block_read_ops + n;
        (* each unit leaves an object file on disk *)
        Vmm.Vm.disk_write vm ~bytes:(n * 192 * 1024)
      | None -> ());
      go (remaining - n) (Sim.Time.add elapsed d)
    end
  in
  go compile_units Sim.Time.zero

let background ?(pages_per_second = 10_150.) () =
  let tick = Sim.Time.ms 50. in
  let cursor = ref 0 in
  let carry = ref 0. in
  (* each run's build is a little different (cache state, scheduling):
     draw a per-run rate factor on first tick *)
  let rate = ref None in
  {
    Background.name = "kernel-compile";
    tick;
    action =
      (fun env ~tick_index:_ ->
        let pages_per_second =
          match !rate with
          | Some r -> r
          | None ->
            let r =
              pages_per_second *. Sim.Rng.lognormal_noise env.Exec_env.rng ~rsd:0.015
            in
            rate := Some r;
            r
        in
        let per_tick = pages_per_second *. Sim.Time.to_s tick in
        carry := !carry +. per_tick;
        let n = int_of_float !carry in
        carry := !carry -. float_of_int n;
        Exec_env.dirty_sequential env ~cursor n;
        match env.Exec_env.vm with
        | Some vm ->
          let io = Vmm.Vm.io vm in
          io.Vmm.Vm.block_write_ops <- io.Vmm.Vm.block_write_ops + (n / 16)
        | None -> ());
  }
