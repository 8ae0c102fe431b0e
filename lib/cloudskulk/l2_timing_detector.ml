type verdict =
  | Looks_nested
  | Looks_normal

let verdict_to_string = function
  | Looks_nested -> "looks nested (RITM suspected)"
  | Looks_normal -> "looks normal"

let find_op name =
  match List.assoc_opt name Workload.Lmbench.processes with
  | Some op -> op
  | None -> invalid_arg ("L2_timing_detector: unknown lmbench op " ^ name)

(* The naive detector times [reference_op] alone; the consistency
   variant adds ops with different exit/fault profiles. An
   observed/expected ratio above [threshold] cries nested. *)
let reference_op = find_op "pipe latency"

let consistency_ops =
  [ reference_op; find_op "fork+exit"; find_op "signal handler installation" ]

let threshold = 3.0
let iterations = 1000

type observation = {
  op_name : string;
  expected_l1_ns : float;
  observed_ns : float;
  ratio : float;
}

type result = {
  observations : observation list;
  naive_verdict : verdict;
  consistency_verdict : verdict;
  max_ratio_spread : float;
}

(* Whether a VM's L1 currently spoofs benchmark results is state of that
   VM, carried on it (never in a module-level registry, which parallel
   trial domains would share). *)
let spoof_results vm = Vmm.Vm.set_spoofs_benchmarks vm true
let stop_spoofing vm = Vmm.Vm.set_spoofs_benchmarks vm false
let is_spoofed vm = Vmm.Vm.spoofs_benchmarks vm

let observe_op vm op =
  (* what the user was promised at provisioning: L1 performance *)
  let expected_l1_ns = Vmm.Cost_model.cost_ns ~level:Vmm.Level.l1 op in
  (* real cost at the level the guest actually runs *)
  let real_ns = Vmm.Cost_model.cost_ns ~level:(Vmm.Vm.level vm) op in
  (* the benchmark loop takes real time on the host's clock... *)
  let loop_duration =
    Sim.Time.ns (int_of_float (Float.round (real_ns *. float_of_int iterations)))
  in
  ignore (Sim.Engine.run_for (Vmm.Vm.engine vm) loop_duration);
  (* ...but the guest reads its own (possibly manipulated) clock *)
  let observed_ns =
    if is_spoofed vm then expected_l1_ns
    else real_ns *. Vmm.Vm.guest_time_scale vm
  in
  {
    op_name = op.Vmm.Cost_model.name;
    expected_l1_ns;
    observed_ns;
    ratio = (if expected_l1_ns > 0. then observed_ns /. expected_l1_ns else 1.);
  }

let measure vm =
  let reference = observe_op vm reference_op in
  let observations = List.map (observe_op vm) consistency_ops in
  let naive_verdict = if reference.ratio > threshold then Looks_nested else Looks_normal in
  let consistency_verdict =
    if List.exists (fun o -> o.ratio > threshold) observations then Looks_nested
    else Looks_normal
  in
  let ratios = List.map (fun o -> o.ratio) observations in
  let max_ratio = List.fold_left Float.max 0. ratios in
  let min_ratio = List.fold_left Float.min Float.infinity ratios in
  {
    observations = reference :: observations;
    naive_verdict;
    consistency_verdict;
    max_ratio_spread = (if min_ratio > 0. then max_ratio /. min_ratio else 1.);
  }

let hide_reference_op vm =
  let op = reference_op in
  let expected = Vmm.Cost_model.cost_ns ~level:Vmm.Level.l1 op in
  let real = Vmm.Cost_model.cost_ns ~level:(Vmm.Vm.level vm) op in
  if real > 0. then Vmm.Vm.set_guest_time_scale vm (expected /. real)
