type profile = {
  loss : float;
  jitter_rsd : float;
  degradation : float;
  degradation_duty : float;
  mtbf : Time.t option;
  mttr : Time.t;
}

let none =
  {
    loss = 0.;
    jitter_rsd = 0.;
    degradation = 1.;
    degradation_duty = 0.;
    mtbf = None;
    mttr = Time.zero;
  }

let lossy = { none with loss = 0.01; jitter_rsd = 0.1 }
let degraded = { none with degradation = 0.4; degradation_duty = 0.5; jitter_rsd = 0.05 }
let flaky = { lossy with mtbf = Some (Time.s 20.); mttr = Time.s 2. }

let profiles =
  [ ("none", none); ("lossy", lossy); ("degraded", degraded); ("flaky", flaky) ]

let profile_of_string s =
  match List.assoc_opt (String.lowercase_ascii s) profiles with
  | Some p -> Ok p
  | None ->
    Error
      (Printf.sprintf "unknown fault profile %S (expected one of %s)" s
         (String.concat ", " (List.map fst profiles)))

let is_none p = p = none

let profile_name p =
  match List.find_opt (fun (_, q) -> q = p) profiles with
  | Some (name, _) -> name
  | None -> "custom"

let validate p =
  if p.loss < 0. || p.loss >= 1. then Error "loss must be in [0, 1)"
  else if p.jitter_rsd < 0. then Error "jitter_rsd must be non-negative"
  else if p.degradation <= 0. || p.degradation > 1. then
    Error "degradation must be in (0, 1]"
  else if p.degradation_duty < 0. || p.degradation_duty > 1. then
    Error "degradation_duty must be in [0, 1]"
  else if Time.(p.mttr < Time.zero) then Error "mttr must be non-negative"
  else Ok ()

type t = {
  profile : profile;
  rng : Rng.t;
  (* absolute virtual time of the next link failure; sampled lazily on
     the first [cut] so creation order does not matter *)
  mutable next_failure : Time.t option;
  m_drops : Telemetry.counter;
  m_outages : Telemetry.counter;
  m_degraded : Telemetry.counter;
  m_downtime_ns : Telemetry.counter;
}

let create ?telemetry profile rng =
  (match validate profile with
  | Ok () -> ()
  | Error e -> invalid_arg ("Fault.create: " ^ e));
  let kind k = Telemetry.counter telemetry ~labels:[ ("kind", k) ] ~component:"fault" "injected_total" in
  {
    profile;
    rng;
    next_failure = None;
    m_drops = kind "chunk_drop";
    m_outages = kind "outage";
    m_degraded = kind "degraded";
    m_downtime_ns = Telemetry.counter telemetry ~component:"fault" "link_downtime_ns_total";
  }

let drops_chunk t =
  t.profile.loss > 0.
  &&
  let hit = Rng.float t.rng 1.0 < t.profile.loss in
  if hit then Telemetry.incr t.m_drops;
  hit

let degradation_factor t =
  if t.profile.degradation_duty <= 0. then 1.
  else if Rng.float t.rng 1.0 < t.profile.degradation_duty then begin
    Telemetry.incr t.m_degraded;
    1. /. t.profile.degradation
  end
  else 1.

let chunk_jitter t =
  Rng.lognormal_noise t.rng ~rsd:t.profile.jitter_rsd *. degradation_factor t

let transmission_factor t =
  let goodput_overhead = if t.profile.loss > 0. then 1. /. (1. -. t.profile.loss) else 1. in
  Rng.lognormal_noise t.rng ~rsd:t.profile.jitter_rsd
  *. degradation_factor t *. goodput_overhead

(* Repairs are never instantaneous: a zero-length outage would make a
   "failed" transmission indistinguishable from a clean one. *)
let min_outage = Time.ms 1.

let cut t ~now ~during =
  match t.profile.mtbf with
  | None -> None
  | Some mtbf ->
    let next =
      match t.next_failure with
      | Some n -> n
      | None ->
        let n = Time.add now (Time.s (Rng.exponential t.rng (Time.to_s mtbf))) in
        t.next_failure <- Some n;
        n
    in
    if Time.(Time.add now during <= next) then None
    else begin
      let after = Time.max Time.zero (Time.diff next now) in
      let outage = Time.max min_outage (Time.s (Rng.exponential t.rng (Time.to_s t.profile.mttr))) in
      Telemetry.incr t.m_outages;
      Telemetry.addf t.m_downtime_ns (Int64.to_float (Time.to_ns outage));
      let repaired = Time.add next outage in
      t.next_failure <-
        Some (Time.add repaired (Time.s (Rng.exponential t.rng (Time.to_s mtbf))));
      Some (after, outage)
    end
