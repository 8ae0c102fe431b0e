(* Experiments for the extension modules: the L2-side timing arms race
   (Section VI-A), the host-side behavioral auditor, and the KSM covert
   channel (the paper's ref [41] mechanism on the same substrate). *)

let target_config () =
  Vmm.Qemu_config.with_hostfwd (Vmm.Qemu_config.default ~name:"guest0") [ (2222, 22) ]

let mk_world ?ksm_config ctx =
  let ctx = Sim.Ctx.fork ctx in
  let uplink = Net.Fabric.Switch.create ctx ~name:"uplink" ~link:Net.Link.lan_1gbe in
  let host =
    Vmm.Hypervisor.create_l0 ?ksm_config ctx ~name:"host" ~uplink ~addr:"192.168.1.100"
  in
  (ctx, host, Migration.Registry.create ())

let infected_victim ctx =
  let ctx, host, registry = mk_world ctx in
  ignore (Result.get_ok (Vmm.Hypervisor.launch host (target_config ())));
  match Cloudskulk.Install.run ctx ~host ~registry ~target_name:"guest0" with
  | Ok r -> (ctx, host, r.Cloudskulk.Install.ritm)
  | Error e -> failwith e

(* abl-l2: guest-side timing detection vs the attacker's clock tricks. *)
let abl_l2 ctx =
  Bench_util.section "abl-l2: detection from inside the guest, and its manipulation (VI-A)";
  let open Cloudskulk.L2_timing_detector in
  let describe label vm =
    let r = measure vm in
    let pipe = List.hd r.observations in
    [
      label;
      Printf.sprintf "%.1fx" pipe.ratio;
      verdict_to_string r.naive_verdict;
      verdict_to_string r.consistency_verdict;
      Printf.sprintf "%.1fx" r.max_ratio_spread;
    ]
  in
  let seed = Sim.Ctx.seed ctx in
  let _, host_clean, _ = mk_world ctx in
  let honest = Result.get_ok (Vmm.Hypervisor.launch host_clean (target_config ())) in
  let _, _, ritm1 = infected_victim ctx in
  let _, _, ritm2 = infected_victim (Sim.Ctx.with_seed ctx (seed + 1)) in
  hide_reference_op ritm2.Cloudskulk.Ritm.victim;
  let _, _, ritm3 = infected_victim (Sim.Ctx.with_seed ctx (seed + 2)) in
  spoof_results ritm3.Cloudskulk.Ritm.victim;
  let rows =
    [
      describe "honest L1 guest" honest;
      describe "nested victim, no evasion" ritm1.Cloudskulk.Ritm.victim;
      describe "nested, clock scaled for pipe" ritm2.Cloudskulk.Ritm.victim;
      describe "nested, results spoofed" ritm3.Cloudskulk.Ritm.victim;
    ]
  in
  Cloudskulk.L2_timing_detector.stop_spoofing ritm3.Cloudskulk.Ritm.victim;
  Bench_util.table
    ~header:[ "guest"; "pipe ratio"; "naive verdict"; "multi-op verdict"; "ratio spread" ]
    ~rows;
  Bench_util.paper_vs_measured
    ~paper:"Section VI-A: L2 measurements can be manipulated from L1 - detect from L0 instead"
    ~measured:"clock scaling beats the naive check; full spoofing beats both; L0 dedup unaffected"

(* audit: the behavioral auditor across scenarios. *)
let audit ctx =
  Bench_util.section "audit: host-side behavioral footprints of an installation";
  let open Cloudskulk.Install_auditor in
  let summarize host =
    let findings = Cloudskulk.Install_auditor.audit host in
    let count sev = List.length (List.filter (fun f -> f.severity = sev) findings) in
    ( Printf.sprintf "%d/%d/%d" (count Info) (count Suspicious) (count Alarm),
      string_of_bool (is_alarming findings) )
  in
  let _, host_clean, _ = mk_world ctx in
  ignore (Result.get_ok (Vmm.Hypervisor.launch host_clean (target_config ())));
  let clean_counts, clean_alarm = summarize host_clean in
  let busy_spawn host =
    ignore
      (Vmm.Process_table.spawn (Vmm.Hypervisor.processes host) ~name:"dnf"
         ~cmdline:"/usr/bin/dnf makecache")
  in
  let cctx, host_vtx, registry = mk_world ctx in
  ignore (Result.get_ok (Vmm.Hypervisor.launch host_vtx (target_config ())));
  busy_spawn host_vtx;
  ignore (Result.get_ok (Cloudskulk.Install.run cctx ~host:host_vtx ~registry ~target_name:"guest0"));
  let vtx_counts, vtx_alarm = summarize host_vtx in
  let cctx, host_soft, registry = mk_world ctx in
  ignore (Result.get_ok (Vmm.Hypervisor.launch host_soft (target_config ())));
  busy_spawn host_soft;
  let config =
    { Cloudskulk.Install.default_config with
      Cloudskulk.Install.use_vtx = false }
  in
  ignore
    (Result.get_ok
       (Cloudskulk.Install.run ~config cctx ~host:host_soft ~registry ~target_name:"guest0"));
  let soft_counts, soft_alarm = summarize host_soft in
  Bench_util.table
    ~header:[ "scenario"; "findings (info/susp/alarm)"; "alarming" ]
    ~rows:
      [
        [ "clean host"; clean_counts; clean_alarm ];
        [ "post-install (VT-x)"; vtx_counts; vtx_alarm ];
        [ "post-install (no VT-x)"; soft_counts; soft_alarm ];
      ];
  Bench_util.note
    "behavioral footprints (PID inversion, public port into a VMX guest, VMCS pages) \
     complement the dedup detector: cheap to sweep, harder to attribute"

(* abl-covert: channel goodput vs ksmd pacing. *)
let abl_covert ctx =
  Bench_util.section "abl-covert: KSM covert channel bandwidth (the paper's ref [41])";
  let configs =
    [
      ("100 pages / 20 ms (default)", Memory.Ksm.default_config);
      ("400 pages / 20 ms", { Memory.Ksm.pages_to_scan = 400; sleep = Sim.Time.ms 20.; incremental = false });
      ("4096 pages / 1 ms (aggressive)", Memory.Ksm.fast_config);
    ]
  in
  let payload = Cloudskulk.Covert_channel.string_to_bits "covert!" in
  let rows =
    List.map
      (fun (name, ksm_config) ->
        let _, host, _ = mk_world ~ksm_config ctx in
        let sender =
          Result.get_ok
            (Vmm.Hypervisor.launch host
               { (Vmm.Qemu_config.default ~name:"sender") with Vmm.Qemu_config.memory_mb = 256 })
        in
        let receiver =
          Result.get_ok
            (Vmm.Hypervisor.launch host
               { (Vmm.Qemu_config.default ~name:"receiver") with
                 Vmm.Qemu_config.memory_mb = 256;
                 monitor_port = 5556 })
        in
        match Cloudskulk.Covert_channel.transmit ~host ~sender ~receiver payload with
        | Ok t ->
          [
            name;
            Printf.sprintf "%d bits" (List.length payload);
            string_of_int t.Cloudskulk.Covert_channel.bit_errors;
            Printf.sprintf "%.2f bit/s" t.Cloudskulk.Covert_channel.bandwidth_bits_per_s;
            Sim.Time.to_string t.Cloudskulk.Covert_channel.elapsed;
          ]
        | Error e -> [ name; "-"; "-"; "-"; "error: " ^ e ])
      configs
  in
  Bench_util.table
    ~header:[ "ksmd pacing"; "payload"; "bit errors"; "goodput"; "frame time" ]
    ~rows;
  Bench_util.note
    "the channel rides the SAME merge+CoW mechanics the detector uses; its bandwidth is \
     gated by ksmd's full-pass time, exactly like the detector's wait"

let specs =
  let open Harness.Experiment in
  [
    make ~id:"abl-l2" ~doc:"Extension: guest-side timing detection arms race" ~default_seed:9
      (fun { ctx; _ } -> abl_l2 ctx);
    make ~id:"audit" ~doc:"Extension: host behavioral auditor" ~default_seed:9
      (fun { ctx; _ } -> audit ctx);
    make ~id:"abl-covert" ~doc:"Extension: KSM covert channel bandwidth" ~default_seed:9
      (fun { ctx; _ } -> abl_covert ctx);
  ]
