(* The datacenter's shape, as one validated value. Every knob that
   changes what the fleet simulates lives here, so the harness, the
   fuzzer, and the benchmarks all describe a fleet the same way - and
   [validate] is the single bounds check all of them share. *)

type t = {
  hosts : int;
  racks : int;
  tenants_per_host : int;  (* initial tenants besides the customer VM *)
  customer_memory_mb : int;
  infection_rate : float;  (* fraction of hosts seeded with CloudSkulk *)
  boot_per_hour : float;  (* per-host churn rates *)
  kill_per_hour : float;
  migrate_per_hour : float;
  duration : Sim.Time.t;
  fabric_latency : Sim.Time.t;  (* cross-host delivery quantum = the epoch *)
}

let default =
  {
    hosts = 4;
    racks = 2;
    tenants_per_host = 3;
    customer_memory_mb = 32;
    infection_rate = 0.25;
    boot_per_hour = 2.;
    kill_per_hour = 2.;
    migrate_per_hour = 2.;
    duration = Sim.Time.minutes 60.;
    fabric_latency = Sim.Time.s 15.;
  }

let vms t = t.hosts * (t.tenants_per_host + 1)
let epoch t = t.fabric_latency

(* Tenant capacity per host: churn and immigration may grow a host past
   its initial population, but never past this. *)
let capacity t = (2 * t.tenants_per_host) + 2

let max_epochs = 100_000
let max_vms = 100_000

let check cond msg = if cond then Ok () else Error msg
let ( let* ) = Result.bind

let validate t =
  let* () = check (t.hosts >= 1 && t.hosts <= 4096) "hosts must be in 1..4096" in
  let* () =
    check (t.racks >= 1 && t.racks <= 64 && t.racks <= t.hosts)
      "racks must be in 1..64 and not exceed hosts"
  in
  let* () =
    check
      (t.tenants_per_host >= 0 && t.tenants_per_host <= 64)
      "tenants_per_host must be in 0..64"
  in
  let* () =
    check
      (t.customer_memory_mb >= 16 && t.customer_memory_mb <= 512)
      "customer_memory_mb must be in 16..512"
  in
  let* () = check (vms t <= max_vms) "fleet exceeds 100k VMs" in
  let* () =
    check
      (t.infection_rate >= 0. && t.infection_rate <= 1.)
      "infection_rate must be in [0, 1]"
  in
  let rate_ok r = r >= 0. && r <= 60. in
  let* () =
    check
      (rate_ok t.boot_per_hour && rate_ok t.kill_per_hour && rate_ok t.migrate_per_hour)
      "churn rates must be in [0, 60] per hour"
  in
  let* () =
    check
      Sim.Time.(t.duration > Sim.Time.zero && t.duration <= Sim.Time.minutes (24. *. 60.))
      "duration must be positive and at most 24 h"
  in
  let* () =
    check
      Sim.Time.(t.fabric_latency > Sim.Time.zero && t.fabric_latency <= Sim.Time.minutes 10.)
      "fabric_latency must be positive and at most 10 min"
  in
  let epochs =
    let e = Sim.Time.to_ns t.fabric_latency and d = Sim.Time.to_ns t.duration in
    Int64.to_int (Int64.div (Int64.add d (Int64.sub e 1L)) e)
  in
  let* () =
    check (epochs <= max_epochs)
      "degenerate fleet: duration / fabric_latency exceeds 100k epochs"
  in
  Ok t

let rack_of t host = host * t.racks / t.hosts
