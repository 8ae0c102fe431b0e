(* Fleet assembly and reporting: instantiate Spec.hosts member worlds
   on Parallel.run_sharded, then fold the per-host ledgers into one
   deterministic report. Everything rendered here is
   partition-invariant (per-host state, fleet totals, SOC arrival
   order), so the same fleet printed at any --shards/--jobs combination
   is byte-identical - the property test/test_fleet.ml pins down. *)

type result = {
  spec : Spec.t;
  reports : Host.report array;
  detections : Cloudskulk.Fleet_soc.detection list;
  audits_sent : int;
  soc_reports : int;
}

let run ?jobs ?(shards = 1) ctx spec =
  let spec =
    match Spec.validate spec with
    | Ok s -> s
    | Error e -> invalid_arg ("Fleet.World.run: " ^ e)
  in
  let hosts =
    Sim.Parallel.run_sharded ?jobs ~shards ~ctx ~members:spec.Spec.hosts
      ~epoch:(Spec.epoch spec) ~until:spec.Spec.duration (fun ~member ctx ->
        let h = Host.create ctx spec ~id:member in
        { Sim.Parallel.world = h; deliver = Host.deliver h; step = Host.step h })
  in
  let reports = Array.map Host.report hosts in
  let detections, audits_sent, soc_reports =
    match Host.soc hosts.(0) with
    | Some soc ->
      ( Cloudskulk.Fleet_soc.detections soc,
        Cloudskulk.Fleet_soc.audits_sent soc,
        Cloudskulk.Fleet_soc.reports_received soc )
    | None -> ([], 0, 0)
  in
  { spec; reports; detections; audits_sent; soc_reports }

let sum f r = Array.fold_left (fun acc h -> acc + f h) 0 r.reports

let boots r = sum (fun h -> h.Host.r_boots) r
let kills r = sum (fun h -> h.Host.r_kills) r
let alive r = sum (fun h -> h.Host.r_alive) r
let parked r = sum (fun h -> h.Host.r_parked) r
let dropped r = sum (fun h -> h.Host.r_dropped_streams) r
let emigrations r = sum (fun h -> h.Host.r_emigrations) r
let immigrations r = sum (fun h -> h.Host.r_immigrations) r
let refusals r = sum (fun h -> h.Host.r_refusals) r
let infected_hosts r = sum (fun h -> if h.Host.r_infected then 1 else 0) r
let detected_hosts r = sum (fun h -> if h.Host.r_detected then 1 else 0) r
let events r = sum (fun h -> h.Host.r_events) r

(* Every booted VM is, at the horizon, alive somewhere, killed
   somewhere, dropped (single-host fleet with nowhere to forward), or
   parked in an outgoing queue; and stream hops balance the same way.
   Capacity is a hard ceiling per host. *)
let conservation r =
  let check cond msg = if cond then Ok () else Error msg in
  let ( let* ) = Result.bind in
  let* () =
    check
      (boots r = kills r + dropped r + parked r + alive r)
      (Printf.sprintf "VM ledger leak: boots %d <> kills %d + dropped %d + parked %d + alive %d"
         (boots r) (kills r) (dropped r) (parked r) (alive r))
  in
  let* () =
    check
      (emigrations r = immigrations r + dropped r + parked r)
      (Printf.sprintf
         "stream ledger leak: emigrations %d <> immigrations %d + dropped %d + parked %d"
         (emigrations r) (immigrations r) (dropped r) (parked r))
  in
  let over =
    Array.to_list r.reports
    |> List.filter (fun h -> h.Host.r_max_tenants > h.Host.r_capacity)
    |> List.map (fun h -> h.Host.r_host)
  in
  check (over = [])
    ("capacity exceeded on host(s) "
    ^ String.concat ", " (List.map string_of_int over))

let fmt_min t = Printf.sprintf "%.1f" (Sim.Time.to_s t /. 60.)

let ttd_quantile r q =
  match r.detections with
  | [] -> "-"
  | ds ->
    let st = Sim.Stats.create () in
    List.iter
      (fun d ->
        Sim.Stats.add st (Int64.to_float (Sim.Time.to_ns d.Cloudskulk.Fleet_soc.det_ttd)))
      ds;
    Printf.sprintf "%.1f" (Sim.Stats.percentile st q /. 60e9)

let render r =
  let b = Buffer.create 1024 in
  let s = r.spec in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  line "fleet: %d hosts x %d VMs = %d VMs (%d racks), horizon %s min, epoch %.1f s"
    s.Spec.hosts
    (s.Spec.tenants_per_host + 1)
    (Spec.vms s) s.Spec.racks (fmt_min s.Spec.duration)
    (Sim.Time.to_s s.Spec.fabric_latency);
  line "infected %d host(s), install failures %d; probe budget %d/window"
    (infected_hosts r)
    (sum (fun h -> if h.Host.r_install_failed then 1 else 0) r)
    Host.detector_policy.Cloudskulk.Detector_service.probe_budget;
  line "churn: boots %d (%d failed), kills %d; migrations %d -> landed %d, forwarded %d, dropped %d, parked %d"
    (boots r)
    (sum (fun h -> h.Host.r_boot_failures) r)
    (kills r) (emigrations r) (immigrations r) (refusals r) (dropped r) (parked r);
  line "chatter: sent %d, delivered %d; SOC audits sent %d, honoured %d, reports %d"
    (sum (fun h -> h.Host.r_chatter_sent) r)
    (sum (fun h -> h.Host.r_chatter_received) r)
    r.audits_sent
    (sum (fun h -> h.Host.r_audits_received) r)
    r.soc_reports;
  line "detections %d/%d infected hosts (%d at SOC); ttd p50 %s min, p99 %s min; probes behind detections %d"
    (detected_hosts r) (infected_hosts r)
    (List.length r.detections)
    (ttd_quantile r 50.) (ttd_quantile r 99.)
    (List.fold_left (fun acc d -> acc + d.Cloudskulk.Fleet_soc.det_probes) 0 r.detections);
  line "conservation %s"
    (match conservation r with Ok () -> "OK" | Error e -> "VIOLATED: " ^ e);
  line " host rack state  boots kills emig immig alive max/cap  det ttd(min) probes";
  Array.iter
    (fun h ->
      line "%5d %4d %-6s %6d %5d %4d %5d %5d %3d/%-3d %4s %8s %6d" h.Host.r_host
        h.Host.r_rack
        (if h.Host.r_infected then "inf"
         else if h.Host.r_install_failed then "aborted"
         else "clean")
        h.Host.r_boots h.Host.r_kills h.Host.r_emigrations h.Host.r_immigrations
        h.Host.r_alive h.Host.r_max_tenants h.Host.r_capacity
        (if h.Host.r_detected then "yes" else "-")
        (match h.Host.r_ttd with Some t -> fmt_min t | None -> "-")
        h.Host.r_probes)
    r.reports;
  Buffer.contents b
