let impersonate_os ~guestx ~victim =
  Vmm.Vm.set_os_release guestx (Vmm.Vm.os_release victim);
  let gx = Vmm.Vm.guest_processes guestx in
  let have = List.map (fun p -> p.Vmm.Process_table.name) (Vmm.Process_table.all gx) in
  List.iter
    (fun (p : Vmm.Process_table.proc) ->
      if not (List.mem p.Vmm.Process_table.name have) then
        ignore
          (Vmm.Process_table.spawn gx ~name:p.Vmm.Process_table.name
             ~cmdline:p.Vmm.Process_table.cmdline))
    (Vmm.Process_table.all (Vmm.Vm.guest_processes victim))

let read_file_image vm ~name =
  match Vmm.Vm.file_offset vm name with
  | None -> Error (Printf.sprintf "%s holds no file named %s" (Vmm.Vm.name vm) name)
  | Some offset ->
    let pages =
      match
        List.find_opt (fun (n, _, _) -> String.equal n name) (Vmm.Vm.loaded_files vm)
      with
      | Some (_, _, p) -> p
      | None -> 0
    in
    let ram = Vmm.Vm.ram vm in
    let contents = Array.init pages (fun i -> Memory.Address_space.read ram (offset + i)) in
    Ok (Memory.File_image.of_contents ~name contents)

let mirror_file ~guestx ~victim ~name =
  match read_file_image victim ~name with
  | Error e -> Error e
  | Ok image -> (
    match Vmm.Vm.load_file guestx image with
    | Ok _ -> Ok ()
    | Error e -> Error e)

let mirror_all_files ~guestx ~victim =
  List.fold_left
    (fun acc (name, _, _) ->
      match mirror_file ~guestx ~victim ~name with Ok () -> acc + 1 | Error _ -> acc)
    0 (Vmm.Vm.loaded_files victim)

let spoof_pid ~host ~guestx ~old_pid =
  let table = Vmm.Hypervisor.processes host in
  match Vmm.Process_table.reassign_pid table ~old_pid:(Vmm.Vm.qemu_pid guestx) ~new_pid:old_pid with
  | Error e -> Error e
  | Ok () ->
    Vmm.Vm.set_qemu_pid guestx old_pid;
    Ok ()

let sync_victim_page ~guestx ~victim ~name ~page =
  match (Vmm.Vm.file_offset victim name, Vmm.Vm.file_offset guestx name) with
  | None, _ -> Error (Printf.sprintf "victim holds no file named %s" name)
  | _, None -> Error (Printf.sprintf "guestx holds no mirror of %s" name)
  | Some voff, Some goff ->
    ignore
      (Memory.Address_space.copy ~src:(Vmm.Vm.ram victim) (voff + page)
         ~dst:(Vmm.Vm.ram guestx) (goff + page));
    Ok ()
