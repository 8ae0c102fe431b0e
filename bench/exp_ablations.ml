(* Ablations beyond the paper's figures, probing the design choices
   DESIGN.md calls out. *)

(* abl-ksm: how does ksmd's pacing trade off against how long the
   detector must wait before trusting merge state? *)
let abl_ksm ctx =
  Bench_util.section "abl-ksm: detector wait vs ksmd scan rate";
  let configs =
    [
      ("25 pages / 20 ms", { Memory.Ksm.pages_to_scan = 25; sleep = Sim.Time.ms 20.; incremental = false });
      ("100 pages / 20 ms (Linux default)", Memory.Ksm.default_config);
      ("400 pages / 20 ms", { Memory.Ksm.pages_to_scan = 400; sleep = Sim.Time.ms 20.; incremental = false });
      ("1600 pages / 20 ms", { Memory.Ksm.pages_to_scan = 1600; sleep = Sim.Time.ms 20.; incremental = false });
    ]
  in
  let rows =
    List.map
      (fun (name, config) ->
        let sc = Cloudskulk.Scenarios.infected ~ksm_config:config ctx in
        match Cloudskulk.Dedup_detector.run sc.Cloudskulk.Scenarios.detector_env with
        | Ok o ->
          [
            name;
            Sim.Time.to_string o.Cloudskulk.Dedup_detector.wait_per_step;
            Sim.Time.to_string o.Cloudskulk.Dedup_detector.elapsed;
            Cloudskulk.Dedup_detector.verdict_to_string o.Cloudskulk.Dedup_detector.verdict;
          ]
        | Error e -> [ name; "-"; "-"; "error: " ^ e ])
      configs
  in
  Bench_util.table ~header:[ "ksmd pacing"; "wait/step"; "whole protocol"; "verdict" ] ~rows;
  Bench_util.note
    "slower ksmd stretches the protocol linearly but never changes the verdict: the \
     detector keys on merge state, not on absolute timing"

(* abl-pages: the Section VI-D claim that one or a few pages suffice. *)
let abl_pages ctx =
  Bench_util.section "abl-pages: detector confidence vs probe size (Section VI-D)";
  let sizes = [ 1; 2; 4; 10; 25; 100 ] in
  let rows =
    List.map
      (fun file_pages ->
        let clean = Cloudskulk.Scenarios.clean ctx in
        let infected = Cloudskulk.Scenarios.infected ctx in
        let verdict sc =
          match Cloudskulk.Dedup_detector.run ~file_pages sc.Cloudskulk.Scenarios.detector_env with
          | Ok o -> o
          | Error e -> failwith e
        in
        let oc = verdict clean and oi = verdict infected in
        let sep (o : Cloudskulk.Dedup_detector.outcome) =
          o.Cloudskulk.Dedup_detector.t1.summary.Sim.Stats.mean
          /. o.Cloudskulk.Dedup_detector.t0.summary.Sim.Stats.mean
        in
        [
          string_of_int file_pages;
          (if oc.Cloudskulk.Dedup_detector.verdict = Cloudskulk.Dedup_detector.No_nested_vm
           then "correct"
           else "WRONG");
          (if
             oi.Cloudskulk.Dedup_detector.verdict
             = Cloudskulk.Dedup_detector.Nested_vm_detected
           then "correct"
           else "WRONG");
          Printf.sprintf "%.1fx" (sep oi);
        ])
      sizes
  in
  Bench_util.table
    ~header:[ "probe pages"; "clean verdict"; "infected verdict"; "t1/t0 separation" ]
    ~rows;
  Bench_util.note "even a single unique page separates merged from private writes"

(* abl-sync: price the Section VI-D evasion - the attacker mirroring the
   victim's page changes into L1 in real time. *)
let abl_sync ~jobs ctx =
  Bench_util.section "abl-sync: cost of the attacker synchronising L2 changes into L1";
  (* per-page sync cost at the attacker's L1: intercept the L2 write
     (one nested exit) plus one page copy *)
  let intercept =
    Vmm.Cost_model.op ~name:"write-intercept" ~cpu:(Sim.Time.us 1.0) ~sw_exits:1. ()
  in
  let per_page_ns = Vmm.Cost_model.cost_ns ~level:Vmm.Level.l2 intercept in
  let dirty_rates = [ ("idle guest", 2.); ("filebench", 2000.); ("kernel compile", 10_150.) ] in
  let rows =
    List.map
      (fun (name, rate) ->
        let overhead = rate *. per_page_ns /. 1e9 in
        [
          name;
          Printf.sprintf "%.0f pages/s" rate;
          Printf.sprintf "%.1f us/page" (per_page_ns /. 1000.);
          Printf.sprintf "%.1f%% of a core" (overhead *. 100.);
        ])
      dirty_rates
  in
  Bench_util.table
    ~header:[ "victim workload"; "dirty rate"; "sync cost"; "continuous attacker CPU" ]
    ~rows;
  (* and mechanically verify the evasion works when paid for, against the
     unsynchronised baseline; the two scenarios are independent trials
     replaying the same seed *)
  let verdicts =
    (* skulkscope: allow rng-escape — seed_of only reads the immutable seed field: both trials deliberately replay the same seed *)
    Sim.Parallel.map_ctx ~jobs ~seed_of:(fun _ -> Sim.Ctx.seed ctx) ~ctx ~trials:2
      (fun i cctx ->
        let sc = Cloudskulk.Scenarios.infected ~attacker_syncs_changes:(i = 0) cctx in
        match Cloudskulk.Dedup_detector.run sc.Cloudskulk.Scenarios.detector_env with
        | Ok o ->
          Cloudskulk.Dedup_detector.verdict_to_string o.Cloudskulk.Dedup_detector.verdict
        | Error e -> "error: " ^ e)
  in
  Printf.printf "\n  with full synchronisation the detector reads: %s\n" (List.nth verdicts 0);
  Printf.printf "  without synchronisation it reads: %s\n" (List.nth verdicts 1);
  Bench_util.note
    "tracking ALL guest pages (262,144 for 1 GB) to know which to sync requires write \
     protection on every page - the paper argues this cost, plus the L1 code changes it \
     needs, makes the evasion unrealistic"

(* abl-density: why clouds run KSM at all - the memory the deduplication
   saves across same-image tenants (paper refs [39], [40]). This is the
   root cause that makes both the detection and the covert channel
   possible. *)
let abl_density ~jobs ctx =
  Bench_util.section "abl-density: KSM memory savings across same-image tenants";
  (* The old incremental loop grew one host tenant by tenant; here each
     tenant count is an independent trial that replays the same launch
     prefix on its own engine, so the rows match the incremental run
     exactly and the counts fan out across cores. *)
  let tenant_counts = 6 in
  let trial cctx n =
    let uplink = Net.Fabric.Switch.create cctx ~name:"uplink" ~link:Net.Link.lan_1gbe in
    let host =
      Vmm.Hypervisor.create_l0 ~ksm_config:Memory.Ksm.fast_config cctx ~name:"host" ~uplink
        ~addr:"192.168.1.100"
    in
    let engine = Sim.Ctx.engine cctx in
    let ksm = Option.get (Vmm.Hypervisor.ksm host) in
    (* every tenant boots the same distro: model its resident footprint as
       a shared 64 MB image loaded into each guest *)
    let image =
      Memory.File_image.generate (Sim.Ctx.fork_rng cctx) ~name:"fedora22-resident"
        ~pages:(64 * 1024 * 1024 / Memory.Page.size_bytes)
    in
    for k = 1 to n do
      let name = Printf.sprintf "tenant-%d" k in
      let cfg =
        { (Vmm.Qemu_config.default ~name) with
          Vmm.Qemu_config.memory_mb = 128;
          monitor_port = 5555 + k;
          vnc_display = k;
          disk =
            { (Vmm.Qemu_config.default ~name).Vmm.Qemu_config.disk with
              Vmm.Qemu_config.image = name ^ ".qcow2" } }
      in
      let vm = Result.get_ok (Vmm.Hypervisor.launch host cfg) in
      ignore (Result.get_ok (Vmm.Vm.load_file vm image));
      ignore (Sim.Engine.run_for engine (Sim.Time.mul (Memory.Ksm.time_for_full_pass ksm) 2.5))
    done;
    let saved_mb =
      float_of_int (Memory.Ksm.pages_sharing ksm * Memory.Page.size_bytes) /. 1024. /. 1024.
    in
    [
      string_of_int n;
      Printf.sprintf "%d MB" (n * 128);
      Printf.sprintf "%.0f MB" saved_mb;
      Printf.sprintf "%d" (Memory.Ksm.pages_shared ksm);
    ]
  in
  let rows =
    (* skulkscope: allow rng-escape — seed_of only reads the immutable seed field: every tenant-count row replays the same base seed *)
    Sim.Parallel.map_ctx ~jobs ~seed_of:(fun _ -> Sim.Ctx.seed ctx) ~ctx
      ~trials:tenant_counts (fun i cctx -> trial cctx (i + 1))
  in
  Bench_util.table
    ~header:[ "tenants"; "nominal RAM"; "RAM saved by KSM"; "stable-tree frames" ]
    ~rows;
  Bench_util.note
    "savings grow with each same-image tenant (zero pages plus the shared resident set); \
     this economic incentive is why the dedup side channel exists in the first place"

(* abl-autoconverge: the attacker's stealth trade-off when the victim's
   workload dirties faster than the channel drains - QEMU's
   auto-converge finishes the migration by visibly braking the guest. *)
let abl_autoconverge ctx =
  Bench_util.section
    "abl-autoconverge: forcing the kernel-compile migration to converge (stealth trade-off)";
  let run ~auto_converge ?(xbzrle = false) () =
    let mp = Vmm.Layers.migration_pair ~nested_dest:true ctx in
    let cctx = mp.Vmm.Layers.mp_ctx in
    let engine = Sim.Ctx.engine cctx in
    let source = mp.Vmm.Layers.mp_source in
    let wenv =
      Workload.Exec_env.make ~vm:source ~ctx:cctx ~level:(Vmm.Vm.level source)
        ~ram:(Vmm.Vm.ram source)
        ~rng:(Sim.Ctx.fork_rng cctx)
        ()
    in
    let handle = Workload.Background.start wenv (Workload.Kernel_compile.background ()) in
    ignore (Sim.Engine.run_for engine (Sim.Time.s 2.));
    let config =
      { Migration.Precopy.default_config with Migration.Precopy.auto_converge; xbzrle }
    in
    let result =
      match Migration.Precopy.migrate ~config cctx ~source ~dest:mp.Vmm.Layers.mp_dest () with
      | Ok o -> Migration.Outcome.stats_exn o
      | Error e -> failwith e
    in
    Workload.Background.stop handle;
    let ran = Workload.Background.ticks handle in
    let lost = Workload.Background.throttled_ticks handle in
    let slowdown =
      if ran + lost = 0 then 0. else float_of_int lost /. float_of_int (ran + lost) *. 100.
    in
    (result, slowdown)
  in
  let off, _ = run ~auto_converge:false () in
  let on_, slowdown = run ~auto_converge:true () in
  let xbz, _ = run ~auto_converge:false ~xbzrle:true () in
  let row label (r : Migration.Precopy.result) throttle victim =
    [
      label;
      Sim.Time.to_string r.Migration.Precopy.total_time;
      string_of_int (List.length r.Migration.Precopy.rounds);
      string_of_bool r.Migration.Precopy.converged;
      throttle;
      victim;
    ]
  in
  Bench_util.table
    ~header:[ "strategy"; "install time"; "rounds"; "converged"; "max throttle"; "victim slowdown" ]
    ~rows:
      [
        row "plain pre-copy" off "-" "none";
        row "auto-converge" on_
          (Printf.sprintf "%.0f%%" (on_.Migration.Precopy.max_throttle *. 100.))
          (Printf.sprintf "%.0f%% of CPU ticks lost" slowdown);
        row "xbzrle delta compression" xbz "-" "none";
      ];
  Bench_util.note
    "auto-converge completes the install far sooner, but the victim's build visibly \
     stalls while it runs - exactly the 'performance change' the paper says is the \
     rootkit's only observable footprint; xbzrle is the stealthier fix: deltas shrink \
     re-sent pages enough for the stream to out-run the dirty rate"

(* abl-postcopy: the paper claims the attack applies to both migration
   strategies; compare installation times. *)
let abl_postcopy ctx =
  Bench_util.section "abl-postcopy: installation time, pre-copy vs post-copy";
  let install strategy =
    let cctx = Sim.Ctx.fork ctx in
    let uplink = Net.Fabric.Switch.create cctx ~name:"uplink" ~link:Net.Link.lan_1gbe in
    let host = Vmm.Hypervisor.create_l0 cctx ~name:"host" ~uplink ~addr:"192.168.1.100" in
    let registry = Migration.Registry.create () in
    let target_cfg =
      Vmm.Qemu_config.with_hostfwd (Vmm.Qemu_config.default ~name:"guest0") [ (2222, 22) ]
    in
    (match Vmm.Hypervisor.launch host target_cfg with Ok _ -> () | Error e -> failwith e);
    let config =
      { Cloudskulk.Install.default_config with
        Cloudskulk.Install.strategy }
    in
    match Cloudskulk.Install.run ~config cctx ~host ~registry ~target_name:"guest0" with
    | Ok r -> r
    | Error e -> failwith e
  in
  let pre = install (Migration.Wiring.Pre_copy Migration.Precopy.default_config) in
  let post = install (Migration.Wiring.Post_copy Migration.Postcopy.default_config) in
  let post_downtime =
    match post.Cloudskulk.Install.postcopy with
    | Some p -> Sim.Time.to_string p.Migration.Postcopy.downtime
    | None -> "-"
  in
  let pre_downtime =
    match pre.Cloudskulk.Install.precopy with
    | Some p -> Sim.Time.to_string p.Migration.Precopy.downtime
    | None -> "-"
  in
  Bench_util.table
    ~header:[ "strategy"; "install time"; "victim downtime" ]
    ~rows:
      [
        [ "pre-copy"; Sim.Time.to_string pre.Cloudskulk.Install.total_time; pre_downtime ];
        [ "post-copy"; Sim.Time.to_string post.Cloudskulk.Install.total_time; post_downtime ];
      ];
  Bench_util.note
    "CloudSkulk installs over either strategy (Section II-A); post-copy trades a shorter \
     freeze for a longer vulnerable background-pull window"

let specs =
  let open Harness.Experiment in
  [
    make ~id:"abl-ksm" ~doc:"Ablation: ksmd pacing vs detector wait" ~default_seed:5
      (fun { ctx; _ } -> abl_ksm ctx);
    make ~id:"abl-pages" ~doc:"Ablation: probe size" ~default_seed:5 (fun { ctx; _ } ->
        abl_pages ctx);
    make ~id:"abl-sync" ~doc:"Ablation: attacker sync evasion cost" ~default_seed:5
      (fun { jobs; ctx; _ } -> abl_sync ~jobs ctx);
    make ~id:"abl-postcopy" ~doc:"Ablation: pre-copy vs post-copy install" ~default_seed:5
      (fun { ctx; _ } -> abl_postcopy ctx);
    make ~id:"abl-density" ~doc:"Ablation: KSM savings across same-image tenants"
      ~default_seed:5 (fun { jobs; ctx; _ } -> abl_density ~jobs ctx);
    make ~id:"abl-autoconverge" ~doc:"Ablation: auto-converge stealth trade-off"
      ~default_seed:5 (fun { ctx; _ } -> abl_autoconverge ctx);
  ]
