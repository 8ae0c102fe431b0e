(* Fleet throughput measurement: real wall-clock of Fleet.World.run at
   datacenter sizes, sharded vs single-shard, for the standing record
   in BENCH_scan.json. The sharded runs use jobs = 0 (all cores), so
   the recorded speedup is whatever the machine can actually deliver -
   on a single-core container the partition runs inline and the number
   documents pure sharding overhead (~1.0x) rather than a fabricated
   gain; the core count is recorded next to it. *)

type measurement = {
  m_vms : int;
  m_vm_minutes : float;  (** simulated VM-minutes covered by the run *)
  m_events : int;  (** engine events across all hosts *)
  m_wall_s : float;  (** best-of-N host seconds *)
}

let spec ~hosts ~tenants ~minutes =
  {
    Fleet.Spec.default with
    Fleet.Spec.hosts;
    racks = min 64 (max 1 (hosts / 8));
    tenants_per_host = tenants;
    duration = Sim.Time.minutes minutes;
  }

let measure ?(repeats = 2) ~hosts ~tenants ~minutes ~shards ~jobs () =
  let spec = spec ~hosts ~tenants ~minutes in
  let events = ref 0 in
  let best = ref infinity in
  for _ = 1 to repeats do
    let ctx = Sim.Ctx.create ~seed:42 () in
    (* skulkscope: allow wall-clock — times the simulator itself (host CPU seconds), not simulated work *)
    let t0 = Sys.time () in
    let r = Fleet.World.run ~jobs ~shards ctx spec in
    (* skulkscope: allow wall-clock — closes the host-clock interval opened above *)
    let dt = Sys.time () -. t0 in
    events := Fleet.World.events r;
    if dt < !best then best := dt
  done;
  {
    m_vms = Fleet.Spec.vms spec;
    m_vm_minutes = float_of_int (Fleet.Spec.vms spec) *. minutes;
    m_events = !events;
    m_wall_s = !best;
  }

let events_per_sec m = float_of_int m.m_events /. m.m_wall_s
let ns_per_vm_minute m = m.m_wall_s *. 1e9 /. m.m_vm_minutes
