open Vmm.Cost_model

(* Table II: virtualization leaves ALU/FPU untouched; the only effect is
   the residual cache/TLB derate at L2, which the cost model applies on
   its own. *)
let arithmetic =
  let cpu_ns name ns = (name, pure_cpu_ns ~name ~ns) in
  [
    cpu_ns "integer bit" 0.26;
    cpu_ns "integer add" 0.13;
    cpu_ns "integer div" 5.94;
    cpu_ns "integer mod" 6.37;
    cpu_ns "float add" 0.75;
    cpu_ns "float mul" 1.25;
    cpu_ns "float div" 3.31;
    cpu_ns "double add" 0.75;
    cpu_ns "double mul" 1.25;
    cpu_ns "double div" 5.06;
  ]

(* Table III: see the .mli and DESIGN.md for how each row's parameters
   were derived from the paper's three anchors. *)
let processes =
  [
    ( "signal handler installation",
      op ~name:"sig-install" ~cpu:(Sim.Time.us 0.075) ~residual_l1:1.28 ~residual_l2:1.30 () );
    ( "signal handler overhead",
      op ~name:"sig-overhead" ~cpu:(Sim.Time.us 0.50) ~residual_l1:1.16 ~residual_l2:1.165 () );
    ( "protection fault",
      op ~name:"prot-fault" ~cpu:(Sim.Time.us 0.27) ~residual_l1:1.074 ~residual_l2:1.15 () );
    ("pipe latency", op ~name:"pipe" ~cpu:(Sim.Time.us 3.49) ~sw_exits:2.0 ());
    ( "AF_UNIX sock stream latency",
      op ~name:"af-unix" ~cpu:(Sim.Time.us 3.58) ~sw_exits:1.098 ~hw_faults_l2:4.84 () );
    ( "fork+exit",
      op ~name:"fork-exit" ~cpu:(Sim.Time.us 74.6) ~residual_l1:0.9873 ~hw_faults_l2:127.9 () );
    ( "fork+execve",
      op ~name:"fork-execve" ~cpu:(Sim.Time.us 245.8) ~residual_l1:1.119 ~hw_faults_l2:234.8 () );
    ( "fork+/bin/sh -c",
      op ~name:"fork-sh" ~cpu:(Sim.Time.us 918.7) ~residual_l1:1.0522 ~hw_faults_l2:638.7 () );
  ]

type fs_row = {
  size_kb : int;
  create : Vmm.Cost_model.op;
  delete : Vmm.Cost_model.op;
}

(* Table IV publishes rates (operations per second) at each level; we
   convert each to per-op microseconds and let the calibration helper
   attribute the L2 residue to emulated faults. *)
let fs_anchor ~name ~l0_rate ~l1_rate ~l2_rate =
  let us rate = Sim.Time.us (1e6 /. rate) in
  calibrate_hw_faults ~name ~l0:(us l0_rate) ~l1:(us l1_rate) ~l2:(us l2_rate) ()

let fs =
  [
    {
      size_kb = 0;
      create = fs_anchor ~name:"create-0k" ~l0_rate:126_418. ~l1_rate:121_718. ~l2_rate:2_430.;
      delete = fs_anchor ~name:"delete-0k" ~l0_rate:379_158. ~l1_rate:361_860. ~l2_rate:320_349.;
    };
    {
      size_kb = 1;
      create = fs_anchor ~name:"create-1k" ~l0_rate:99_112. ~l1_rate:97_073. ~l2_rate:62_933.;
      delete = fs_anchor ~name:"delete-1k" ~l0_rate:280_884. ~l1_rate:268_977. ~l2_rate:262_478.;
    };
    {
      size_kb = 4;
      create = fs_anchor ~name:"create-4k" ~l0_rate:99_627. ~l1_rate:95_821. ~l2_rate:96_588.;
      delete = fs_anchor ~name:"delete-4k" ~l0_rate:279_893. ~l1_rate:273_863. ~l2_rate:251_766.;
    };
    {
      size_kb = 10;
      create = fs_anchor ~name:"create-10k" ~l0_rate:79_869. ~l1_rate:77_118. ~l2_rate:70_098.;
      delete = fs_anchor ~name:"delete-10k" ~l0_rate:214_767. ~l1_rate:204_260. ~l2_rate:196_449.;
    };
  ]

let measure ?(iterations = 10_000) env op =
  let base = cost_ns ~level:env.Exec_env.level op in
  let noisy =
    base *. Sim.Rng.lognormal_noise env.Exec_env.rng ~rsd:env.Exec_env.noise_rsd
  in
  let total = Sim.Time.ns (int_of_float (Float.round (noisy *. float_of_int iterations))) in
  ignore (Sim.Engine.run_for env.Exec_env.engine total);
  noisy

let ops_per_second ~ns_per_op = if ns_per_op <= 0. then 0. else 1e9 /. ns_per_op
