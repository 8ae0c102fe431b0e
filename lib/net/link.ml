type t = {
  latency : Sim.Time.t;
  bandwidth_bytes_per_s : float;
}

(* Below this, serialisation times stop meaning anything (a single page
   would take decades of virtual time and overflow the integer
   nanosecond clock), so derating clamps here instead of sliding into
   nonsense. One byte per second is already a dead link for every
   purpose in this repository. *)
let min_bandwidth_bytes_per_s = 1.

let make ~latency ~bandwidth_mbytes_per_s =
  if bandwidth_mbytes_per_s <= 0. then invalid_arg "Link.make: bandwidth must be positive";
  if Sim.Time.(latency < Sim.Time.zero) then invalid_arg "Link.make: latency must be non-negative";
  {
    latency;
    bandwidth_bytes_per_s =
      Float.max min_bandwidth_bytes_per_s (bandwidth_mbytes_per_s *. 1024. *. 1024.);
  }

let loopback = make ~latency:(Sim.Time.us 50.) ~bandwidth_mbytes_per_s:2048.
let lan_1gbe = make ~latency:(Sim.Time.us 200.) ~bandwidth_mbytes_per_s:117.
let migration_loopback = make ~latency:(Sim.Time.us 80.) ~bandwidth_mbytes_per_s:50.

let transfer_time t bytes =
  if bytes < 0 then invalid_arg "Link.transfer_time: negative byte count";
  if bytes = 0 then t.latency
  else
    let serialisation = Sim.Time.s (float_of_int bytes /. t.bandwidth_bytes_per_s) in
    Sim.Time.add t.latency serialisation

let scale_bandwidth t factor =
  if factor <= 0. || Float.is_nan factor then
    invalid_arg "Link.scale_bandwidth: factor must be positive";
  {
    t with
    bandwidth_bytes_per_s =
      Float.max min_bandwidth_bytes_per_s (t.bandwidth_bytes_per_s *. factor);
  }
