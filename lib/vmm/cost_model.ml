let exit_l1 = Sim.Time.us 1.63
let nested_exit_multiplier = 19.0
let nested_page_fault = Sim.Time.us 1.3
let l2_cpu_derate = 1.03

type op = {
  name : string;
  cpu_ns : float;
  sw_exits : float;
  hw_faults_l2 : float;
  residual_l1 : float;
  residual_l2 : float;
}

let op_ns ?(sw_exits = 0.) ?(hw_faults_l2 = 0.) ?(residual_l1 = 1.0) ?residual_l2 ~name ~cpu_ns
    () =
  let residual_l2 = match residual_l2 with Some r -> r | None -> residual_l1 in
  { name; cpu_ns; sw_exits; hw_faults_l2; residual_l1; residual_l2 }

let op ?sw_exits ?hw_faults_l2 ?residual_l1 ?residual_l2 ~name ~cpu () =
  op_ns ?sw_exits ?hw_faults_l2 ?residual_l1 ?residual_l2 ~name
    ~cpu_ns:(Int64.to_float (Sim.Time.to_ns cpu))
    ()

let pure_cpu_ns ~name ~ns = op_ns ~name ~cpu_ns:ns ()

let pow base n =
  let rec go acc n = if n <= 0 then acc else go (acc *. base) (n - 1) in
  go 1.0 n

let cost_ns ~level o =
  let ns t = Int64.to_float (Sim.Time.to_ns t) in
  match Level.to_int level with
  | 0 -> o.cpu_ns
  | 1 -> (o.cpu_ns *. o.residual_l1) +. (o.sw_exits *. ns exit_l1)
  | n ->
    let cpu_part = o.cpu_ns *. o.residual_l2 *. pow l2_cpu_derate (n - 1) in
    let exit_part =
      o.sw_exits *. ns exit_l1 *. pow nested_exit_multiplier (n - 1)
    in
    let fault_part =
      o.hw_faults_l2 *. ns nested_page_fault *. pow nested_exit_multiplier (n - 2)
    in
    cpu_part +. exit_part +. fault_part

let cost_n ~level o n =
  Sim.Time.ns (int_of_float (Float.round (cost_ns ~level o *. float_of_int n)))

let calibrate_hw_faults ~name ~l0 ~l1 ~l2 () =
  let ns t = Int64.to_float (Sim.Time.to_ns t) in
  if ns l0 <= 0. then invalid_arg "calibrate_hw_faults: l0 anchor must be positive";
  let residual_l1 = ns l1 /. ns l0 in
  let cpu_part_l2 = ns l0 *. residual_l1 *. l2_cpu_derate in
  let hw_faults_l2 = Float.max 0. ((ns l2 -. cpu_part_l2) /. ns nested_page_fault) in
  op ~name ~cpu:l0 ~residual_l1 ~hw_faults_l2 ()
