(* Datacenter fleet: time-to-detection and scan cost vs fleet size on
   the partitioned event engine. Each size is an independent
   Fleet.World run (racks of hosts behind the fabric, Poisson churn,
   multi-tenant KSM pressure, CloudSkulk infections at
   Spec.infection_rate); --shards/--jobs pick the partition, and the
   output is byte-identical whatever they are - that invariance is the
   whole point of Sim.Parallel.run_sharded and is what CI diffs.

   The ladder scales with --trials so smoke runs stay cheap:
   --trials 1 runs only the 16-VM fleet, the default 5 adds the 100-
   and 1000-VM fleets, and --trials 10+ adds the 10k-VM fleet (about
   half a minute of wall clock). *)

let size ~label ~hosts ~tenants ~minutes =
  ( label,
    {
      Fleet.Spec.default with
      Fleet.Spec.hosts;
      racks = min 64 (max 1 (hosts / 8));
      tenants_per_host = tenants;
      duration = Sim.Time.minutes minutes;
    } )

let sizes ~trials =
  List.concat
    [
      [ size ~label:"small" ~hosts:4 ~tenants:3 ~minutes:60. ];
      (if trials >= 2 then [ size ~label:"100vm" ~hosts:25 ~tenants:3 ~minutes:60. ]
       else []);
      (if trials >= 5 then [ size ~label:"1kvm" ~hosts:125 ~tenants:7 ~minutes:45. ]
       else []);
      (if trials >= 10 then [ size ~label:"10kvm" ~hosts:1250 ~tenants:7 ~minutes:15. ]
       else []);
    ]

let ttd_quantile (r : Fleet.World.result) q =
  match r.Fleet.World.detections with
  | [] -> "-"
  | ds ->
    let st = Sim.Stats.create () in
    List.iter
      (fun d ->
        Sim.Stats.add st
          (Int64.to_float (Sim.Time.to_ns d.Cloudskulk.Fleet_soc.det_ttd)))
      ds;
    Printf.sprintf "%.1f min" (Sim.Stats.percentile st q /. 60e9)

let run { Harness.Experiment.trials; jobs; shards; ctx } =
  Bench_util.section "Fleet: time-to-detection and scan cost vs fleet size";
  let results =
    List.map
      (fun (label, spec) -> (label, spec, Fleet.World.run ~jobs ~shards ctx spec))
      (sizes ~trials)
  in
  let rows =
    List.map
      (fun (label, spec, r) ->
        let vms = Fleet.Spec.vms spec in
        let vm_minutes =
          float_of_int vms *. (Sim.Time.to_s spec.Fleet.Spec.duration /. 60.)
        in
        let probes =
          Array.fold_left
            (fun acc h -> acc + h.Fleet.Host.r_probes)
            0 r.Fleet.World.reports
        in
        [
          label;
          string_of_int spec.Fleet.Spec.hosts;
          string_of_int vms;
          Printf.sprintf "%d/%d"
            (Fleet.World.detected_hosts r)
            (Fleet.World.infected_hosts r);
          ttd_quantile r 50.;
          ttd_quantile r 99.;
          string_of_int probes;
          Printf.sprintf "%.1f" (float_of_int probes /. float_of_int (max 1 vms));
          string_of_int (Fleet.World.events r);
          Printf.sprintf "%.0f" (float_of_int (Fleet.World.events r) /. vm_minutes);
        ])
      results
  in
  Bench_util.table
    ~header:
      [
        "fleet"; "hosts"; "vms"; "detected"; "ttd p50"; "ttd p99"; "probes";
        "probes/vm"; "events"; "events/vm-min";
      ]
    ~rows;
  (match results with
  | (label, _, r) :: _ ->
    Bench_util.subsection (Printf.sprintf "fleet %s, host by host" label);
    print_string (Fleet.World.render r)
  | [] -> ());
  List.iter
    (fun (label, _, r) ->
      match Fleet.World.conservation r with
      | Ok () -> ()
      | Error e -> Printf.printf "  CONSERVATION VIOLATED (%s): %s\n" label e)
    results;
  Bench_util.note
    "scan cost stays per-host (probes/vm flat, events/vm-min bounded) while the SOC's \
     audit rotation covers the fleet, so time-to-detection is governed by the dedup \
     rotation window, not the fleet size; every number above is byte-identical for any \
     --shards x --jobs partition"

let spec =
  Harness.Experiment.make ~default_seed:42 ~id:"fleet"
    ~doc:"fleet: sharded datacenter worlds, detection latency vs scale" run
