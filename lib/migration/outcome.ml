type reason =
  | Channel_down of int
  | Cancelled of int
  | Postcopy_paused

let reason_to_string = function
  | Channel_down r -> Printf.sprintf "channel down in round %d, retries exhausted" r
  | Cancelled r -> Printf.sprintf "cancelled at round %d" r
  | Postcopy_paused -> "postcopy page pull lost its channel (recoverable)"

type recovery = {
  retransmissions : int;
  outages : int;
  stalled : Sim.Time.t;
}

type 'a t =
  | Completed of 'a
  | Recovered of 'a * recovery
  | Aborted of {
      reason : reason;
      source_resumed : bool;
      retransmissions : int;
      stalled : Sim.Time.t;
    }

let stats = function
  | Completed s | Recovered (s, _) -> Some s
  | Aborted _ -> None

let completed = function Completed _ | Recovered _ -> true | Aborted _ -> false

let stats_exn = function
  | Completed s | Recovered (s, _) -> s
  | Aborted a -> invalid_arg ("Outcome.stats_exn: aborted: " ^ reason_to_string a.reason)

let check_legal t ~source ~dest =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let state vm = Vmm.Vm.state_to_string (Vmm.Vm.state vm) in
  match t with
  | Completed _ | Recovered _ -> (
    (* the destination owns the guest; the source husk is paused until
       someone kills it *)
    match (Vmm.Vm.state dest, Vmm.Vm.state source) with
    | Vmm.Vm.Running, (Vmm.Vm.Paused | Vmm.Vm.Stopped) -> Ok ()
    | Vmm.Vm.Running, _ -> err "completed migration left the source %s" (state source)
    | _, _ -> err "completed migration left the destination %s" (state dest))
  | Aborted { reason = Postcopy_paused; _ } -> (
    (* handover already happened: the guest is parked at the destination
       awaiting migrate_recover, the source stays a paused husk *)
    match (Vmm.Vm.state dest, Vmm.Vm.state source) with
    | Vmm.Vm.Paused, (Vmm.Vm.Paused | Vmm.Vm.Stopped) -> Ok ()
    | Vmm.Vm.Paused, _ -> err "postcopy-paused migration left the source %s" (state source)
    | _, _ -> err "postcopy-paused migration left the destination %s" (state dest))
  | Aborted { source_resumed; _ } -> (
    (* pre-handover failure: the source still owns the guest and the
       destination never leaves the incoming state (or was torn down) *)
    if source_resumed <> (Vmm.Vm.state source = Vmm.Vm.Running) then
      err "abort reported source_resumed=%b but the source is %s" source_resumed (state source)
    else
      match Vmm.Vm.state dest with
      | Vmm.Vm.Incoming | Vmm.Vm.Stopped -> Ok ()
      | _ -> err "aborted migration left the destination %s" (state dest))

let describe = function
  | Completed _ -> "completed"
  | Recovered (_, r) ->
    Printf.sprintf "recovered after %d outage%s, %d retransmission%s (%s stalled)" r.outages
      (if r.outages = 1 then "" else "s")
      r.retransmissions
      (if r.retransmissions = 1 then "" else "s")
      (Sim.Time.to_string r.stalled)
  | Aborted a ->
    Printf.sprintf "aborted: %s%s" (reason_to_string a.reason)
      (if a.source_resumed then " (source resumed)" else "")
