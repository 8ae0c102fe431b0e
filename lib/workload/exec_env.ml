type t = {
  ctx : Sim.Ctx.t;
  engine : Sim.Engine.t;
  level : Vmm.Level.t;
  ram : Memory.Address_space.t;
  rng : Sim.Rng.t;
  vm : Vmm.Vm.t option;
  noise_rsd : float;
}

let make ?(noise_rsd = 0.02) ?vm ~ctx ~level ~ram ~rng () =
  { ctx; engine = Sim.Ctx.engine ctx; level; ram; rng; vm; noise_rsd }

let of_layers ?noise_rsd (env : Vmm.Layers.env) =
  make ?noise_rsd ?vm:env.Vmm.Layers.exec_vm ~ctx:env.Vmm.Layers.ctx
    ~level:env.Vmm.Layers.exec_level ~ram:env.Vmm.Layers.exec_ram
    ~rng:(Sim.Ctx.fork_rng env.Vmm.Layers.ctx)
    ()

let charge_exits t n =
  match t.vm with
  | Some vm ->
    Vmm.Vm.record_exits vm n;
    (* every exit at L(n>=2) traps through each level below: the
       exit-multiplication fan-out the paper's Fig 1 illustrates *)
    let depth = Vmm.Level.to_int t.level in
    if depth >= 2 && n > 0 then
      Vmm.Vm.record_nested_fanout vm
        (int_of_float
           (float_of_int n *. Vmm.Cost_model.nested_exit_multiplier
          *. float_of_int (depth - 1)))
  | None -> ()

let consume t op n =
  let base = Vmm.Cost_model.cost_n ~level:t.level op n in
  let elapsed = Sim.Time.mul base (Sim.Rng.lognormal_noise t.rng ~rsd:t.noise_rsd) in
  ignore (Sim.Engine.run_for t.engine elapsed);
  (match t.vm with
  | Some vm ->
    let io = Vmm.Vm.io vm in
    io.Vmm.Vm.cpu_time <- Sim.Time.add io.Vmm.Vm.cpu_time elapsed
  | None -> ());
  charge_exits t (int_of_float (op.Vmm.Cost_model.sw_exits *. float_of_int n));
  elapsed

let rewrite t i = ignore (Memory.Address_space.mutate t.ram i ~salt:i)

let dirty_random t n =
  let pages = Memory.Address_space.pages t.ram in
  for _ = 1 to n do
    rewrite t (Sim.Rng.int t.rng pages)
  done

let dirty_sequential t ~cursor n =
  let pages = Memory.Address_space.pages t.ram in
  for _ = 1 to n do
    rewrite t (!cursor mod pages);
    incr cursor
  done

let dirty_region t ~offset ~length n =
  if length <= 0 then invalid_arg "dirty_region: empty region";
  for _ = 1 to n do
    rewrite t (offset + Sim.Rng.int t.rng length)
  done
