(* SOC monitoring: a cloud operator's periodic sweep. Several tenants
   share a host; one of them gets hit by CloudSkulk mid-run. A security
   operations job wakes up on a schedule, runs the dedup check against
   every tenant VM, and raises an alert when the verdict flips.

   This is the "what would a downstream user build with this library"
   example: the detector packaged as a recurring, low-touch job.

   Run with: dune exec examples/soc_monitoring.exe *)

let tenants = [ "tenant-a"; "tenant-b"; "tenant-c" ]

let () =
  let ctx = Sim.Ctx.create ~seed:31 () in
  let engine = Sim.Ctx.engine ctx in
  let uplink = Net.Fabric.Switch.create ctx ~name:"uplink" ~link:Net.Link.lan_1gbe in
  let host = Vmm.Hypervisor.create_l0 ctx ~name:"host" ~uplink ~addr:"192.168.1.100" in
  let registry = Migration.Registry.create () in

  (* three tenants, ssh forwarded on 2201..2203 *)
  let vms =
    List.mapi
      (fun i name ->
        let config =
          Vmm.Qemu_config.with_hostfwd
            { (Vmm.Qemu_config.default ~name) with
              Vmm.Qemu_config.monitor_port = 5555 + i;
              vnc_display = i;
              disk =
                { (Vmm.Qemu_config.default ~name).Vmm.Qemu_config.disk with
                  Vmm.Qemu_config.image = name ^ ".qcow2" } }
            [ (2201 + i, 22) ]
        in
        Result.get_ok (Vmm.Hypervisor.launch host config))
      tenants
  in
  Printf.printf "host up with %d tenant VMs\n" (List.length vms);

  (* The SOC's per-tenant check. The "customer agent" side (delivering
     File-A and mutating it) is the web interface of Section VI-D-1: it
     talks to wherever the tenant's OS actually runs, which after an
     attack is the nested victim - tracked in [agent_vm] below. *)
  let agent_vm : (string, Vmm.Vm.t) Hashtbl.t = Hashtbl.create 4 in
  let ritm_of : (string, Cloudskulk.Ritm.t) Hashtbl.t = Hashtbl.create 4 in
  List.iter2 (fun name vm -> Hashtbl.replace agent_vm name vm) tenants vms;

  let check tenant =
    let vm = Hashtbl.find agent_vm tenant in
    let env =
      {
        Cloudskulk.Dedup_detector.ctx;
        host;
        deliver_to_guest =
          (fun image ->
            match Vmm.Vm.load_file vm image with
            | Error e -> Error e
            | Ok _ -> (
              (* if a RITM sits in the middle, the attacker sees the
                 delivery cross GuestX and mirrors the file to keep the
                 impersonation consistent - the move the detector turns
                 against them *)
              match Hashtbl.find_opt ritm_of tenant with
              | None -> Ok ()
              | Some ritm ->
                Result.map (fun () -> ())
                  (Cloudskulk.Stealth.mirror_file
                     ~guestx:ritm.Cloudskulk.Ritm.guestx ~victim:vm
                     ~name:(Memory.File_image.name image))));
        mutate_in_guest =
          (fun ~name ~salt ->
            match Vmm.Vm.file_offset vm name with
            | None -> Error "agent: no such file"
            | Some off ->
              let ram = Vmm.Vm.ram vm in
              let pages =
                match
                  List.find_opt (fun (n, _, _) -> n = name) (Vmm.Vm.loaded_files vm)
                with
                | Some (_, _, p) -> p
                | None -> 0
              in
              for i = 0 to pages - 1 do
                ignore (Memory.Address_space.mutate ram (off + i) ~salt)
              done;
              Ok ());
      }
    in
    (* small probes keep the sweep cheap (abl-pages shows 4 suffice) *)
    match Cloudskulk.Dedup_detector.run ~file_pages:8 env with
    | Ok o -> Cloudskulk.Dedup_detector.verdict_to_string o.Cloudskulk.Dedup_detector.verdict
    | Error e -> "error: " ^ e
  in

  let sweep label =
    Printf.printf "\n[%s] SOC sweep at virtual time %s\n" label
      (Sim.Time.to_string (Sim.Engine.now engine));
    List.iter (fun t -> Printf.printf "  %-9s -> %s\n" t (check t)) tenants
  in

  sweep "before";

  (* tenant-b gets hit *)
  Printf.printf "\n*** attacker compromises the host and targets tenant-b ***\n";
  let config =
    { Cloudskulk.Install.default_config with
      Cloudskulk.Install.host_port = 5700;
      ritm_port = 5701 }
  in
  (match Cloudskulk.Install.run ~config ctx ~host ~registry ~target_name:"tenant-b" with
  | Ok report ->
    Printf.printf "CloudSkulk installed on tenant-b in %s\n"
      (Sim.Time.to_string report.Cloudskulk.Install.total_time);
    (* the tenant's OS now runs in the nested victim; the agent follows *)
    Hashtbl.replace agent_vm "tenant-b" report.Cloudskulk.Install.ritm.Cloudskulk.Ritm.victim;
    Hashtbl.replace ritm_of "tenant-b" report.Cloudskulk.Install.ritm
  | Error e -> Printf.printf "install failed: %s\n" e);

  sweep "after";
  Printf.printf
    "\nalert: tenant-b flipped to 'nested VM detected' - quarantine the host, image the\n\
     GuestX process, and migrate the victim out through a trusted channel.\n"
