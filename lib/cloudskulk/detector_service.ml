type policy = {
  sweep_every : Sim.Time.t;
  probe_pages : int;
  dedup_every_n_sweeps : int;
  probe_budget : int;
  event_log_capacity : int;
}

let default_policy =
  {
    sweep_every = Sim.Time.minutes 30.;
    probe_pages = 8;
    dedup_every_n_sweeps = 4;
    probe_budget = max_int;
    event_log_capacity = 1024;
  }

type tenant_state = {
  tenant : string;
  last_verdict : Dedup_detector.verdict option;
  probes : int;
  registered_at : Sim.Time.t;
  first_detected_at : Sim.Time.t option;
}

type event =
  | Audit_alarm of { sweep : int; findings : Install_auditor.finding list }
  | Verdict_flip of {
      sweep : int;
      tenant : string;
      before : Dedup_detector.verdict option;
      after : Dedup_detector.verdict;
    }
  | Probe_failed of { sweep : int; tenant : string; reason : string }
  | Budget_exhausted of { sweep : int; tenant : string }

let event_to_string = function
  | Audit_alarm { sweep; findings } ->
    Printf.sprintf "[sweep %d] audit alarm: %s" sweep
      (String.concat "; "
         (List.map (fun f -> Format.asprintf "%a" Install_auditor.pp_finding f) findings))
  | Verdict_flip { sweep; tenant; before; after } ->
    Printf.sprintf "[sweep %d] %s: %s -> %s" sweep tenant
      (match before with
      | Some v -> Dedup_detector.verdict_to_string v
      | None -> "(never probed)")
      (Dedup_detector.verdict_to_string after)
  | Probe_failed { sweep; tenant; reason } ->
    Printf.sprintf "[sweep %d] %s: probe failed: %s" sweep tenant reason
  | Budget_exhausted { sweep; tenant } ->
    Printf.sprintf "[sweep %d] %s: probe deferred: scan-window budget exhausted" sweep
      tenant

(* Bounded event log: a ring over the policy's capacity. The operator's
   alerting pipeline consumes events through the event hook and
   telemetry; the retained log is a diagnostic tail, and overflow is
   accounted, not silent. *)
type ring = {
  slots : event option array;
  mutable next : int;  (* next write position *)
  mutable len : int;
  mutable dropped : int;
}

let ring_create capacity = { slots = Array.make (max 1 capacity) None; next = 0; len = 0; dropped = 0 }

let ring_push r ev =
  let cap = Array.length r.slots in
  if r.len = cap then r.dropped <- r.dropped + 1 else r.len <- r.len + 1;
  r.slots.(r.next) <- Some ev;
  r.next <- (r.next + 1) mod cap

let ring_to_list r =
  let cap = Array.length r.slots in
  let start = (r.next - r.len + cap) mod cap in
  List.init r.len (fun i ->
      match r.slots.((start + i) mod cap) with
      | Some ev -> ev
      | None -> assert false)

type registered = {
  mutable env : unit -> Dedup_detector.environment;
  mutable last_verdict : Dedup_detector.verdict option;
  mutable probes : int;
  mutable probing : bool;
      (* a probe is in flight: its ksmd wait runs the engine re-entrantly,
         so audit ticks (and their alarm pulls) can fire mid-probe; the
         guard stops those from stacking a second probe of the same
         tenant inside the first, which would never converge *)
  mutable handle : Sim.Engine.event_handle option;  (* pending monitor probe *)
  registered_at : Sim.Time.t;
  mutable first_detected_at : Sim.Time.t option;
}

type t = {
  ctx : Sim.Ctx.t;
  host : Vmm.Hypervisor.t;
  policy : policy;
  rng : Sim.Rng.t;  (* service's own stream, forked from the ctx seed *)
  tenants : (string, registered) Hashtbl.t;
  mutable tenant_order_rev : string list;  (* registration order, newest first *)
  mutable sweeps : int;
  log : ring;
  mutable active : bool;
  mutable hook : (event -> unit) option;  (* fleet SOC event stream *)
  mutable window_start : Sim.Time.t;
  mutable probes_in_window : int;
  mutable budget_deferrals : int;
  (* telemetry handles; physically [None] when the host has no sink *)
  m_probe_failures : Sim.Telemetry.counter;
  m_budget : Sim.Telemetry.counter;
  m_dropped : Sim.Telemetry.counter;
  m_tenants : Sim.Telemetry.gauge;
  m_probe_latency : Sim.Telemetry.summary;
  m_ttd : Sim.Telemetry.summary;
}

let create ?(policy = default_policy) ctx host =
  let tel = Vmm.Hypervisor.telemetry host in
  {
    ctx;
    host;
    policy;
    rng = Sim.Ctx.fork_rng ctx;
    tenants = Hashtbl.create 8;
    tenant_order_rev = [];
    sweeps = 0;
    log = ring_create policy.event_log_capacity;
    active = false;
    hook = None;
    window_start = Sim.Ctx.now ctx;
    probes_in_window = 0;
    budget_deferrals = 0;
    m_probe_failures =
      Sim.Telemetry.counter tel ~component:"detector" "probe_failures_total";
    m_budget = Sim.Telemetry.counter tel ~component:"detector" "budget_exhausted_total";
    m_dropped = Sim.Telemetry.counter tel ~component:"detector" "events_dropped_total";
    m_tenants = Sim.Telemetry.gauge tel ~component:"detector" "tenants";
    m_probe_latency = Sim.Telemetry.summary tel ~component:"detector" "probe_latency_ns";
    m_ttd = Sim.Telemetry.summary tel ~component:"detector" "time_to_detect_ns";
  }

let tenant_order t = List.rev t.tenant_order_rev

let emit t ev =
  let dropped_before = t.log.dropped in
  ring_push t.log ev;
  if t.log.dropped > dropped_before then Sim.Telemetry.incr t.m_dropped;
  match t.hook with Some f -> f ev | None -> ()

let set_event_hook t hook = t.hook <- hook

let verdict_label = function
  | Dedup_detector.Nested_vm_detected -> "nested_vm_detected"
  | Dedup_detector.No_nested_vm -> "no_nested_vm"
  | Dedup_detector.Inconclusive _ -> "inconclusive"

let interval t =
  Sim.Time.mul t.policy.sweep_every (float_of_int (max 1 t.policy.dedup_every_n_sweeps))

(* Next-probe delay for the continuous monitor: the rotation interval
   +/- 20 %, drawn from the service's own RNG stream so tenant probes
   drift apart instead of thundering in lockstep. *)
let probe_jitter = 0.2

let jittered_interval t =
  let u = Sim.Rng.float t.rng 1.0 in
  Sim.Time.mul (interval t) (1. +. (probe_jitter *. ((2. *. u) -. 1.)))

let roll_window t =
  let now = Sim.Ctx.now t.ctx in
  while Sim.Time.( <= ) (Sim.Time.add t.window_start t.policy.sweep_every) now do
    t.window_start <- Sim.Time.add t.window_start t.policy.sweep_every;
    t.probes_in_window <- 0
  done

let budget_left t = t.probes_in_window < t.policy.probe_budget

let defer t ~sweep name =
  t.budget_deferrals <- t.budget_deferrals + 1;
  Sim.Telemetry.incr t.m_budget;
  emit t (Budget_exhausted { sweep; tenant = name })

let probe_tenant t ~sweep name (r : registered) =
  let started = Sim.Ctx.now t.ctx in
  r.probing <- true;
  let outcome =
    Fun.protect
      ~finally:(fun () -> r.probing <- false)
      (fun () -> Dedup_detector.run ~file_pages:t.policy.probe_pages (r.env ()))
  in
  match outcome with
  | Error reason ->
    emit t (Probe_failed { sweep; tenant = name; reason });
    Sim.Telemetry.incr t.m_probe_failures
  | Ok outcome ->
    let now = Sim.Ctx.now t.ctx in
    let after = outcome.Dedup_detector.verdict in
    r.probes <- r.probes + 1;
    Sim.Telemetry.record t.m_probe_latency
      (Int64.to_float (Sim.Time.to_ns (Sim.Time.diff now started)));
    Sim.Telemetry.incr
      (Sim.Telemetry.counter
         (Vmm.Hypervisor.telemetry t.host)
         ~labels:[ ("verdict", verdict_label after) ]
         ~component:"detector" "probes_total");
    let changed =
      match r.last_verdict with
      | None -> true
      | Some before -> not (Dedup_detector.verdict_equal before after)
    in
    if changed then
      emit t (Verdict_flip { sweep; tenant = name; before = r.last_verdict; after });
    r.last_verdict <- Some after;
    (match after with
    | Dedup_detector.Nested_vm_detected when Option.is_none r.first_detected_at ->
      r.first_detected_at <- Some now;
      Sim.Telemetry.record t.m_ttd
        (Int64.to_float (Sim.Time.to_ns (Sim.Time.diff now r.registered_at)))
    | _ -> ())

(* --- continuous monitor scheduling ------------------------------------ *)

let cancel_pending t (r : registered) =
  match r.handle with
  | None -> ()
  | Some h ->
    Sim.Engine.cancel (Sim.Ctx.engine t.ctx) h;
    r.handle <- None

let rec schedule_probe t name delay =
  match Hashtbl.find_opt t.tenants name with
  | None -> ()
  | Some r ->
    cancel_pending t r;
    r.handle <-
      Some (Sim.Engine.schedule_after (Sim.Ctx.engine t.ctx) delay (fun () -> probe_tick t name))

and probe_tick t name =
  match Hashtbl.find_opt t.tenants name with
  | None -> ()
  | Some r ->
    r.handle <- None;
    (* [r.probing]: this tick fired inside the tenant's own in-flight
       probe (an alarm pulled it to now mid-wait); the running probe
       already satisfies it and will schedule the next one *)
    if t.active && not r.probing then begin
      roll_window t;
      if budget_left t then begin
        t.probes_in_window <- t.probes_in_window + 1;
        probe_tenant t ~sweep:t.sweeps name r;
        schedule_probe t name (jittered_interval t)
      end
      else begin
        defer t ~sweep:t.sweeps name;
        (* retry shortly after the next scan window opens, with a small
           jittered pad so deferred tenants do not re-collide *)
        let until_next =
          Sim.Time.diff (Sim.Time.add t.window_start t.policy.sweep_every) (Sim.Ctx.now t.ctx)
        in
        let pad =
          Sim.Time.mul t.policy.sweep_every (0.05 *. Sim.Rng.float t.rng 1.0)
        in
        schedule_probe t name
          (Sim.Time.add (Sim.Time.max until_next (Sim.Time.ns 1)) pad)
      end
    end

(* --- registration ----------------------------------------------------- *)

let register_tenant t ~name ~env =
  match Hashtbl.find_opt t.tenants name with
  | Some r -> r.env <- env
  | None ->
    Hashtbl.replace t.tenants name
      {
        env;
        last_verdict = None;
        probes = 0;
        probing = false;
        handle = None;
        registered_at = Sim.Ctx.now t.ctx;
        first_detected_at = None;
      };
    t.tenant_order_rev <- name :: t.tenant_order_rev;
    Sim.Telemetry.set t.m_tenants (float_of_int (Hashtbl.length t.tenants));
    if t.active then
      (* spread the first probe uniformly over one rotation interval *)
      schedule_probe t name (Sim.Time.mul (interval t) (Sim.Rng.float t.rng 1.0))

(* Continuous SOC mode: the cheap audit keeps its fixed cadence (it is
   the scan-window clock), while each tenant's expensive dedup probe
   self-schedules on a jittered rotation interval so probes spread over
   the window instead of arriving as a thundering herd. *)
let audit_tick t =
  t.sweeps <- t.sweeps + 1;
  roll_window t;
  let sweep = t.sweeps in
  let findings = Install_auditor.audit t.host in
  if Install_auditor.is_alarming findings then begin
    emit t (Audit_alarm { sweep; findings });
    (* alarm: pull every tenant's next probe forward to now; the budget
       still applies, so an alarm cannot stampede the window *)
    List.iter (fun name -> schedule_probe t name (Sim.Time.ns 0)) (tenant_order t)
  end

let start_monitor t =
  if not t.active then begin
    t.active <- true;
    t.window_start <- Sim.Ctx.now t.ctx;
    t.probes_in_window <- 0;
    List.iter
      (fun name -> schedule_probe t name (Sim.Time.mul (interval t) (Sim.Rng.float t.rng 1.0)))
      (tenant_order t);
    Sim.Engine.periodic (Sim.Ctx.engine t.ctx) ~every:t.policy.sweep_every (fun () ->
        if t.active then audit_tick t;
        t.active)
  end

(* A remote SOC audit: pull every tenant's next monitor probe forward
   to now, exactly as a local audit alarm does. The scan-window budget
   still applies, so a remote operator cannot stampede the host. *)
let pull_probes_forward t =
  if t.active then
    List.iter (fun name -> schedule_probe t name (Sim.Time.ns 0)) (tenant_order t)

let stop t =
  t.active <- false;
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.tenants name with
      | Some r -> cancel_pending t r
      | None -> ())
    (tenant_order t)

let sweeps_run t = t.sweeps
let events t = ring_to_list t.log
let events_dropped t = t.log.dropped
let budget_deferrals t = t.budget_deferrals

let tenant_state t name =
  Option.map
    (fun (r : registered) ->
      {
        tenant = name;
        last_verdict = r.last_verdict;
        probes = r.probes;
        registered_at = r.registered_at;
        first_detected_at = r.first_detected_at;
      })
    (Hashtbl.find_opt t.tenants name)

let time_to_detect t name =
  match Hashtbl.find_opt t.tenants name with
  | Some { first_detected_at = Some at; registered_at; _ } ->
    Some (Sim.Time.diff at registered_at)
  | Some _ | None -> None

let compromised_tenants t =
  List.filter
    (fun name ->
      match Hashtbl.find_opt t.tenants name with
      | Some { last_verdict = Some Dedup_detector.Nested_vm_detected; _ } -> true
      | Some _ | None -> false)
    (tenant_order t)
