(* Benchmark shell: every table, figure and ablation is an
   {!Harness.Experiment.t} spec registered here in presentation order;
   flag parsing, context construction and telemetry export all live in
   {!Harness.Registry}. Run with no arguments for everything, or
   [--only <id>] for one experiment. *)

let () =
  List.iter Harness.Registry.register
    ([ Exp_table1.spec; Exp_fig2.spec; Exp_fig3.spec; Exp_fig4.spec ]
    @ Exp_lmbench.specs @ Exp_fig56.specs
    @ [ Exp_install.spec; Exp_detect.spec; Exp_slo.spec ]
    @ Exp_ablations.specs @ Exp_extensions.specs
    @ [ Exp_fuzz.spec; Exp_fleet.spec ]);
  exit
    (Harness.Registry.main ~name:"cloudskulk-bench"
       ~doc:"Regenerate the CloudSkulk paper's tables and figures"
       ~prologue:
         [
           "CloudSkulk reproduction: regenerating every table and figure";
           "(simulated substrate; see DESIGN.md for the calibration story)";
         ]
       ())
