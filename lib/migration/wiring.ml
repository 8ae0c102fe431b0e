type strategy =
  | Pre_copy of Precopy.config
  | Post_copy of Postcopy.config

(* One wiring per source VM; its outcome lives on the handle the caller
   got back, never in module-level state (which parallel trial domains
   would share - trials routinely reuse VM names). *)
type outcome =
  | Pre_copied of Precopy.result Outcome.t
  | Post_copied of Postcopy.result Outcome.t

type t = { mutable last : outcome option }

let fault_counters outcome =
  match outcome with
  | Outcome.Completed _ -> ""
  | Outcome.Recovered (_, r) ->
    Printf.sprintf "\nretransmissions: %d\noutages: %d\nstalled: %s" r.Outcome.retransmissions
      r.Outcome.outages
      (Sim.Time.to_string r.Outcome.stalled)
  | Outcome.Aborted a ->
    Printf.sprintf "\nretransmissions: %d\nstalled: %s" a.retransmissions
      (Sim.Time.to_string a.stalled)

(* Whether the destination has taken over the guest (the migration
   finished, or parked it postcopy-paused), and the abort reason the
   monitor reports, if any. *)
let settle = function
  | Outcome.Completed _ | Outcome.Recovered _ -> (true, None)
  | Outcome.Aborted { reason = Outcome.Postcopy_paused as reason; _ } -> (true, Some reason)
  | Outcome.Aborted a -> (false, Some a.reason)

let render_precopy outcome =
  match Outcome.stats outcome with
  | Some (r : Precopy.result) ->
    Printf.sprintf
      "Migration status: %s\nrounds: %d\ntransferred ram: %d bytes\ndowntime: %s\n\
       total time: %s%s"
      (Outcome.describe outcome) (List.length r.rounds) r.total_bytes_sent
      (Sim.Time.to_string r.downtime)
      (Sim.Time.to_string r.total_time)
      (fault_counters outcome)
  | None -> Printf.sprintf "Migration status: %s%s" (Outcome.describe outcome) (fault_counters outcome)

let render_postcopy outcome =
  match Outcome.stats outcome with
  | Some (r : Postcopy.result) ->
    Printf.sprintf
      "Migration status: %s (postcopy)\ntransferred pages: %d\ndowntime: %s\n\
       total time: %s\ndemand faults: %d%s"
      (Outcome.describe outcome) r.total_pages_sent
      (Sim.Time.to_string r.downtime)
      (Sim.Time.to_string r.total_time)
      r.demand_faults (fault_counters outcome)
  | None -> Printf.sprintf "Migration status: %s%s" (Outcome.describe outcome) (fault_counters outcome)

let wire_monitor ?(strategy = Pre_copy Precopy.default_config) ?fault ctx ~registry ~source
    () =
  let wiring = { last = None } in
  Vmm.Vm.set_migrate_handler source (fun ~host ~port ->
      match Registry.resolve registry ~addr:host ~port with
      | Error e -> Error e
      | Ok dest -> (
        let ran =
          match strategy with
          | Pre_copy config ->
            Result.map
              (fun o ->
                Vmm.Vm.set_migration_stats source (render_precopy o);
                Pre_copied o)
              (Precopy.migrate ~config ?fault ctx ~source ~dest ())
          | Post_copy config ->
            Result.map
              (fun o ->
                Vmm.Vm.set_migration_stats source (render_postcopy o);
                (* a postcopy-paused destination carries its own status,
                   and its recover closure refreshes it on success *)
                (match o with
                | Outcome.Aborted { reason = Outcome.Postcopy_paused; _ } ->
                  Vmm.Vm.set_migration_stats dest
                    "Migration status: postcopy-paused (migrate_recover to resume)";
                  (match Vmm.Vm.recover_handler dest with
                  | None -> ()
                  | Some h ->
                    Vmm.Vm.set_recover_handler dest
                      (Some
                         (fun () ->
                           match h () with
                           | Error e -> Error e
                           | Ok () ->
                             Vmm.Vm.set_migration_stats dest
                               "Migration status: completed (via migrate_recover)";
                             Ok ())))
                | Outcome.Completed _ | Outcome.Recovered _ | Outcome.Aborted _ -> ());
                Post_copied o)
              (Postcopy.migrate ~config ?fault ctx ~source ~dest ())
        in
        match ran with
        | Error e -> Error e
        | Ok last -> (
          wiring.last <- Some last;
          let handed_over, aborted =
            match last with Pre_copied o -> settle o | Post_copied o -> settle o
          in
          if handed_over then Registry.unregister registry ~addr:host ~port;
          match aborted with
          | Some reason -> Error (Outcome.reason_to_string reason)
          | None -> Ok ())));
  wiring

let last_result t = t.last
