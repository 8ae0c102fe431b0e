(* corpus: span begin/end pairing — two findings. *)
let elsewhere = Sim.Time.zero (* a module-level instant, not a start captured here *)
(* zero-width: start and stop are the same binding *)
let f telemetry now =
  Sim.Telemetry.span telemetry ~component:"x" ~name:"tick" ~start:now ~stop:now ()

(* begin/end split across functions: start never captured here *)
let g telemetry stop =
  Sim.Telemetry.span telemetry ~component:"x" ~name:"work" ~start:elsewhere ~stop ()
