type config = {
  host_port : int;
  ritm_port : int;
  strategy : Migration.Wiring.strategy;
  use_vtx : bool;
  impersonate : bool;
  faults : Sim.Fault.profile;
}

let default_config =
  {
    host_port = 5600;
    ritm_port = 5601;
    strategy = Migration.Wiring.Pre_copy Migration.Precopy.default_config;
    use_vtx = true;
    impersonate = true;
    faults = Sim.Fault.none;
  }

type step =
  | Recon
  | Launch_ritm
  | Nested_destination
  | Live_migration
  | Cleanup

let step_name = function
  | Recon -> "recon"
  | Launch_ritm -> "launch-ritm"
  | Nested_destination -> "nested-destination"
  | Live_migration -> "live-migration"
  | Cleanup -> "cleanup"

type step_report = {
  step : step;
  started : Sim.Time.t;
  finished : Sim.Time.t;
  detail : string;
}

type report = {
  ritm : Ritm.t;
  steps : step_report list;
  precopy : Migration.Precopy.result option;
  postcopy : Migration.Postcopy.result option;
  migration_outcome : string;
  old_pid : Vmm.Process_table.pid;
  new_pid : Vmm.Process_table.pid;
  total_time : Sim.Time.t;
}

(* Small monadic glue so each step reads top-to-bottom. *)
let ( let* ) r f = Result.bind r f

let guestx_name = "guestx"

let guestx_config cfg (target : Vmm.Qemu_config.t) =
  let base = Vmm.Qemu_config.default ~name:guestx_name in
  {
    base with
    (* room for the nested guest's RAM plus the L1 OS itself *)
    Vmm.Qemu_config.memory_mb = target.Vmm.Qemu_config.memory_mb * 2;
    monitor_port = target.Vmm.Qemu_config.monitor_port + 1;
    vnc_display = target.Vmm.Qemu_config.vnc_display + 1;
    nested_vmx = true;
    disk = { base.Vmm.Qemu_config.disk with Vmm.Qemu_config.image = guestx_name ^ ".qcow2" };
    netdev =
      {
        base.Vmm.Qemu_config.netdev with
        Vmm.Qemu_config.hostfwd = [ (cfg.host_port, cfg.ritm_port) ];
      };
  }

let run ?(config = default_config) ctx ~host ~registry ~target_name =
  let engine = Sim.Ctx.engine ctx in
  (* a non-trivial context profile overrides whatever the config
     carries; the none profile keeps the caller's (or the zero-fault
     default) untouched *)
  let cfg =
    if Sim.Fault.is_none (Sim.Ctx.faults ctx) then config
    else { config with faults = Sim.Ctx.faults ctx }
  in
  let t0 = Sim.Engine.now engine in
  let telemetry = Vmm.Hypervisor.telemetry host in
  let steps = ref [] in
  let record step started detail =
    let finished = Sim.Engine.now engine in
    if Sim.Telemetry.enabled telemetry then
      Sim.Telemetry.span telemetry ~component:"cloudskulk" ~name:"install_step"
        ~start:started ~stop:finished
        ~fields:[ ("step", step_name step) ]
        ();
    steps := { step; started; finished; detail } :: !steps
  in
  (* Step 1: reconnaissance. *)
  let s = Sim.Engine.now engine in
  let* finding = Recon.find_target host ~name:target_name in
  let* () = Recon.verify_config finding in
  record Recon s
    (Printf.sprintf "target %s: pid %d, %s" target_name finding.Recon.qemu_pid
       (Format.asprintf "%a" Vmm.Qemu_config.pp finding.Recon.config));
  let target = finding.Recon.vm in
  let old_pid = finding.Recon.qemu_pid in
  (* Step 2: launch the RITM (GuestX). *)
  let s = Sim.Engine.now engine in
  let* guestx = Vmm.Hypervisor.launch host (guestx_config cfg finding.Recon.config) in
  record Launch_ritm s
    (Printf.sprintf "%s up: %d MB, nested VMX on, hostfwd %d->%d" guestx_name
       (Vmm.Vm.config guestx).Vmm.Qemu_config.memory_mb cfg.host_port cfg.ritm_port);
  let teardown_guestx e =
    Vmm.Hypervisor.kill_vm host guestx;
    Error e
  in
  (* Step 3: nested hypervisor + matching destination, paused on BBBB. *)
  let s = Sim.Engine.now engine in
  (* The nested hypervisor is created through a quiet context: same
     world, same sink, but a private throwaway trace - the rootkit's
     machinery leaves no records in the host's own trace. *)
  (match
     Vmm.Hypervisor.create_nested ~use_vtx:cfg.use_vtx (Sim.Ctx.quiet ctx) ~vm:guestx
       ~name:"guestx-kvm"
   with
  | Error e -> teardown_guestx e
  | Ok nested_hv -> (
    let dest_config =
      finding.Recon.config
      |> (fun c -> Vmm.Qemu_config.with_incoming c ~port:cfg.ritm_port)
      |> fun c ->
      Vmm.Qemu_config.with_hostfwd c
        finding.Recon.config.Vmm.Qemu_config.netdev.Vmm.Qemu_config.hostfwd
    in
    match Vmm.Hypervisor.launch nested_hv dest_config with
    | Error e -> teardown_guestx e
    | Ok dest -> (
      let guestx_addr = Vmm.Vm.addr guestx in
      let host_addr = Net.Fabric.Node.addr (Vmm.Hypervisor.gateway host) in
      Migration.Registry.register_incoming registry ~addr:guestx_addr ~port:cfg.ritm_port dest;
      Migration.Registry.add_forward registry ~addr:host_addr ~port:cfg.host_port
        ~to_addr:guestx_addr ~to_port:cfg.ritm_port;
      record Nested_destination s
        (Printf.sprintf "destination %s incoming on %s:%d (via host:%d)" (Vmm.Vm.name dest)
           guestx_addr cfg.ritm_port cfg.host_port);
      (* Step 4: drive the target's monitor to migrate. The fault
         injector only forks an RNG stream when a real profile is
         selected, so zero-fault installs draw the exact historical
         random sequence. *)
      let s = Sim.Engine.now engine in
      let fault =
        if Sim.Fault.is_none cfg.faults then None
        else Some (Sim.Fault.create ?telemetry cfg.faults (Sim.Engine.fork_rng engine))
      in
      let wiring =
        Migration.Wiring.wire_monitor ~strategy:cfg.strategy ?fault ctx ~registry
          ~source:target ()
      in
      let migrate_cmd = Printf.sprintf "migrate tcp:%s:%d" host_addr cfg.host_port in
      match Vmm.Monitor.execute target migrate_cmd with
      | Vmm.Monitor.Error_text e ->
        Migration.Registry.unregister registry ~addr:guestx_addr ~port:cfg.ritm_port;
        teardown_guestx ("monitor migrate: " ^ e)
      | Vmm.Monitor.Quit ->
        teardown_guestx "monitor migrate: unexpected quit"
      | Vmm.Monitor.Ok_text _ -> (
        let precopy, postcopy, migration_outcome =
          match Migration.Wiring.last_result wiring with
          | Some (Migration.Wiring.Pre_copied o) ->
            (Migration.Outcome.stats o, None, Migration.Outcome.describe o)
          | Some (Migration.Wiring.Post_copied o) ->
            (None, Migration.Outcome.stats o, Migration.Outcome.describe o)
          | None -> (None, None, "completed")
        in
        record Live_migration s migrate_cmd;
        (* Clean-up: kill the husk, re-point forwards, spoof, blend in. *)
        let s = Sim.Engine.now engine in
        let victim_fwds =
          finding.Recon.config.Vmm.Qemu_config.netdev.Vmm.Qemu_config.hostfwd
        in
        (match Vmm.Monitor.execute target "quit" with
        | Vmm.Monitor.Quit | Vmm.Monitor.Ok_text _ -> ()
        | Vmm.Monitor.Error_text _ -> ());
        Vmm.Hypervisor.kill_vm host target;
        (* the migration listener rule has served its purpose; leaving
           it would be evidence (a public port into a VMX guest) *)
        Net.Fabric.Node.remove_forward (Vmm.Hypervisor.gateway host) ~from_port:cfg.host_port;
        (* The victim's published ports now route host -> GuestX -> L2.
           GuestX's internal rule (port -> nested victim) was installed
           when the nested destination launched with the target's
           hostfwd config; the host side is re-pointed here, after the
           husk released the port. *)
        List.iter
          (fun (host_port, _guest_port) ->
            Net.Fabric.Node.add_forward
              (Vmm.Hypervisor.gateway host)
              ~from_port:host_port
              ~to_:(Net.Packet.endpoint guestx_addr host_port)
              ~via:(Vmm.Hypervisor.switch host))
          victim_fwds;
        match Stealth.spoof_pid ~host ~guestx ~old_pid with
        | Error e -> teardown_guestx ("pid spoof: " ^ e)
        | Ok () ->
          if cfg.impersonate then begin
            Stealth.impersonate_os ~guestx ~victim:dest;
            ignore (Stealth.mirror_all_files ~guestx ~victim:dest)
          end;
          record Cleanup s
            (Printf.sprintf "husk killed, pid %d -> %d, forwards re-pointed%s" old_pid
               (Vmm.Vm.qemu_pid guestx)
               (if cfg.impersonate then ", impersonating" else ""));
          let ritm =
            {
              Ritm.engine;
              host;
              registry;
              guestx;
              nested_hv;
              victim = dest;
              ports =
                {
                  Ritm.migration_host_port = cfg.host_port;
                  migration_ritm_port = cfg.ritm_port;
                };
              installed_at = Sim.Engine.now engine;
            }
          in
          Ok
            {
              ritm;
              steps = List.rev !steps;
              precopy;
              postcopy;
              migration_outcome;
              old_pid;
              new_pid = Vmm.Vm.qemu_pid guestx;
              total_time = Sim.Time.diff (Sim.Engine.now engine) t0;
            }))))

let pp_report fmt r =
  Format.fprintf fmt "CloudSkulk installed in %a@\n" Sim.Time.pp r.total_time;
  List.iter
    (fun s ->
      Format.fprintf fmt "  %-20s %a -> %a: %s@\n" (step_name s.step) Sim.Time.pp s.started
        Sim.Time.pp s.finished s.detail)
    r.steps;
  (match r.precopy with
  | Some p ->
    (* the outcome suffix only appears under fault injection, keeping
       zero-fault report text identical to pre-fault builds *)
    Format.fprintf fmt "  migration: %d rounds, %a total, %a downtime%s@\n"
      (List.length p.Migration.Precopy.rounds)
      Sim.Time.pp p.Migration.Precopy.total_time Sim.Time.pp p.Migration.Precopy.downtime
      (if String.equal r.migration_outcome "completed" then ""
       else " (" ^ r.migration_outcome ^ ")")
  | None -> ());
  Format.fprintf fmt "  pid: %d -> %d (spoofed back)@\n" r.old_pid r.new_pid
