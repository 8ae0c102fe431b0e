(* Serialised VM state for cross-host (and cross-shard) moves.

   Pre/post-copy model the *protocol* of a live migration between two
   VMs that already exist on one engine. A fleet move is different: the
   destination host lives on another engine entirely (possibly another
   domain), so the only thing that may cross is inert data. A
   [descriptor] is that data - the VM's identity, size, and nonzero
   page contents - captured on the source, shipped through a shard
   mailbox, and resumed on the destination hypervisor as an incoming
   launch. Descriptors are pure values: capture order is page order,
   so two captures of the same VM are structurally equal. *)

type descriptor = {
  vm_name : string;
  memory_mb : int;
  os_release : string;
  pages : (int * Memory.Page.Content.t) list;  (* nonzero pages, ascending index *)
}

let capture (vm : Vmm.Vm.t) =
  let ram = Vmm.Vm.ram vm in
  let n = Memory.Address_space.pages ram in
  let pages = ref [] in
  for i = n - 1 downto 0 do
    let c = Memory.Address_space.read ram i in
    if not (Memory.Page.Content.is_zero c) then pages := (i, c) :: !pages
  done;
  {
    vm_name = Vmm.Vm.name vm;
    memory_mb = (Vmm.Vm.config vm).Vmm.Qemu_config.memory_mb;
    os_release = Vmm.Vm.os_release vm;
    pages = !pages;
  }

let page_count d = List.length d.pages

let resume hv ~incoming_port d =
  let config =
    Vmm.Qemu_config.with_incoming
      { (Vmm.Qemu_config.default ~name:d.vm_name) with Vmm.Qemu_config.memory_mb = d.memory_mb }
      ~port:incoming_port
  in
  match Vmm.Hypervisor.launch hv config with
  | Error e -> Error e
  | Ok vm ->
    let ram = Vmm.Vm.ram vm in
    List.iter (fun (i, c) -> ignore (Memory.Address_space.write ram i c)) d.pages;
    Vmm.Vm.set_os_release vm d.os_release;
    (match Vmm.Vm.complete_incoming vm with
    | Ok () -> Ok vm
    | Error e ->
      Vmm.Hypervisor.kill_vm hv vm;
      Error e)
