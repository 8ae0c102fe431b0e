type t = {
  ctx : Sim.Ctx.t;
  host : Vmm.Hypervisor.t;
  registry : Migration.Registry.t;
  customer_vm : Vmm.Vm.t;
  ritm : Ritm.t option;
  install_report : Install.report option;
  detector_env : Dedup_detector.environment;
  description : string;
}

type install_failure =
  | Launch_failed of string
  | Install_failed of string

let install_failure_to_string = function
  | Launch_failed e -> "infected(launch): " ^ e
  | Install_failed e -> "infected(install): " ^ e

let get_ok what = function
  | Ok v -> v
  | Error e -> invalid_arg (Printf.sprintf "Scenarios.%s: %s" what e)

(* Like {!Vmm.Layers}, each scenario forks the caller's context so it
   plays out in a fresh world replayed from the context's seed. *)
let make_host ?ksm_config ctx =
  let ctx = Sim.Ctx.fork ctx in
  let uplink = Net.Fabric.Switch.create ctx ~name:"uplink" ~link:Net.Link.lan_1gbe in
  let host =
    Vmm.Hypervisor.create_l0 ?ksm_config ctx ~name:"host" ~uplink ~addr:"192.168.1.100"
  in
  (ctx, host)

let customer_config ?memory_mb () =
  let base = Vmm.Qemu_config.default ~name:"guest0" in
  let base =
    match memory_mb with
    | None -> base
    | Some m -> { base with Vmm.Qemu_config.memory_mb = m }
  in
  Vmm.Qemu_config.with_hostfwd base [ (2222, 22) ]

(* Change every page of a named file inside a VM's memory. *)
let mutate_file_in vm ~name ~salt =
  match Vmm.Vm.file_offset vm name with
  | None -> Error (Printf.sprintf "%s holds no file named %s" (Vmm.Vm.name vm) name)
  | Some offset ->
    let pages =
      match List.find_opt (fun (n, _, _) -> String.equal n name) (Vmm.Vm.loaded_files vm) with
      | Some (_, _, p) -> p
      | None -> 0
    in
    let ram = Vmm.Vm.ram vm in
    for i = 0 to pages - 1 do
      ignore (Memory.Address_space.mutate ram (offset + i) ~salt)
    done;
    Ok ()

let clean ?ksm_config ?customer_memory_mb ctx =
  let ctx, host = make_host ?ksm_config ctx in
  let registry = Migration.Registry.create () in
  let guest0 =
    get_ok "clean" (Vmm.Hypervisor.launch host (customer_config ?memory_mb:customer_memory_mb ()))
  in
  let deliver_to_guest image = Result.map (fun _ -> ()) (Vmm.Vm.load_file guest0 image) in
  let mutate_in_guest ~name ~salt = mutate_file_in guest0 ~name ~salt in
  {
    ctx;
    host;
    registry;
    customer_vm = guest0;
    ritm = None;
    install_report = None;
    detector_env = { Dedup_detector.ctx; host; deliver_to_guest; mutate_in_guest };
    description = "clean host: customer VM at L1";
  }

let ( let* ) r f = Result.bind r f

let infected_result ?ksm_config ?customer_memory_mb ?(attacker_syncs_changes = false)
    ?install_config ctx =
  let ctx, host = make_host ?ksm_config ctx in
  let registry = Migration.Registry.create () in
  let* guest0 =
    Result.map_error
      (fun e -> Launch_failed e)
      (Vmm.Hypervisor.launch host (customer_config ?memory_mb:customer_memory_mb ()))
  in
  ignore guest0;
  let* report =
    (* the context's fault profile (if any) overrides the config's
       inside {!Install.run} itself; an abort (possible under an
       aggressive profile) is a legal outcome here, not an exception *)
    Result.map_error
      (fun e -> Install_failed e)
      (Install.run ?config:install_config ctx ~host ~registry ~target_name:"guest0")
  in
  let ritm = report.Install.ritm in
  let victim = ritm.Ritm.victim in
  let guestx = ritm.Ritm.guestx in
  (* The web-interface delivery lands in the customer's OS - which now
     runs at L2. The attacker sees the file cross the RITM and mirrors
     it into GuestX so that the L1 "guest" keeps looking identical. *)
  let deliver_to_guest image =
    match Vmm.Vm.load_file victim image with
    | Error e -> Error e
    | Ok _ ->
      Result.map
        (fun () -> ())
        (Stealth.mirror_file ~guestx ~victim ~name:(Memory.File_image.name image))
  in
  let mutate_in_guest ~name ~salt =
    match mutate_file_in victim ~name ~salt with
    | Error e -> Error e
    | Ok () ->
      if attacker_syncs_changes then begin
        (* Section VI-D evasion: the attacker tracks the victim's page
           writes and replays them into the mirror. *)
        let pages =
          match
            List.find_opt (fun (n, _, _) -> String.equal n name) (Vmm.Vm.loaded_files victim)
          with
          | Some (_, _, p) -> p
          | None -> 0
        in
        let rec sync i =
          if i >= pages then Ok ()
          else
            match Stealth.sync_victim_page ~guestx ~victim ~name ~page:i with
            | Ok () -> sync (i + 1)
            | Error e -> Error e
        in
        sync 0
      end
      else Ok ()
  in
  Ok
    {
      ctx;
      host;
      registry;
      customer_vm = victim;
      ritm = Some ritm;
      install_report = Some report;
      detector_env = { Dedup_detector.ctx; host; deliver_to_guest; mutate_in_guest };
      description =
        (if attacker_syncs_changes then
           "infected host: CloudSkulk installed, attacker syncing file changes"
         else "infected host: CloudSkulk installed");
    }

let infected ?ksm_config ?customer_memory_mb ?attacker_syncs_changes ?install_config ctx =
  match
    infected_result ?ksm_config ?customer_memory_mb ?attacker_syncs_changes ?install_config
      ctx
  with
  | Ok t -> t
  | Error f -> invalid_arg ("Scenarios." ^ install_failure_to_string f)
