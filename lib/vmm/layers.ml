type env = {
  ctx : Sim.Ctx.t;
  uplink : Net.Fabric.switch;
  host : Hypervisor.t;
  exec_level : Level.t;
  exec_ram : Memory.Address_space.t;
  exec_vm : Vm.t option;
  guestx : Vm.t option;
  nested_hv : Hypervisor.t option;
}

let get_ok what = function
  | Ok v -> v
  | Error e -> invalid_arg (Printf.sprintf "Layers.%s: %s" what e)

(* Every builder forks the caller's context: each topology is a fresh
   world - its own engine replayed from the context's seed, its own
   trace - so building several from one context gives each the schedule
   a fresh creation would. *)
let make_host ?ksm_config ctx =
  let ctx = Sim.Ctx.fork ctx in
  let uplink = Net.Fabric.Switch.create ctx ~name:"uplink" ~link:Net.Link.lan_1gbe in
  let host =
    Hypervisor.create_l0 ?ksm_config ctx ~name:"host" ~uplink ~addr:"192.168.1.100"
  in
  (ctx, uplink, host)

let guest_config () =
  Qemu_config.with_hostfwd (Qemu_config.default ~name:"guest0") [ (2222, 22) ]

let bare_metal ?ksm_config ?(workspace_mb = 1024) ctx =
  let ctx, uplink, host = make_host ?ksm_config ctx in
  let pages = workspace_mb * 1024 * 1024 / Memory.Page.size_bytes in
  let exec_ram = get_ok "bare_metal" (Hypervisor.host_buffer host ~name:"l0-workspace" ~pages) in
  {
    ctx;
    uplink;
    host;
    exec_level = Level.l0;
    exec_ram;
    exec_vm = None;
    guestx = None;
    nested_hv = None;
  }

let single_guest ?ksm_config ?config ctx =
  let ctx, uplink, host = make_host ?ksm_config ctx in
  let config = match config with Some c -> c | None -> guest_config () in
  let vm = get_ok "single_guest" (Hypervisor.launch host config) in
  {
    ctx;
    uplink;
    host;
    exec_level = Vm.level vm;
    exec_ram = Vm.ram vm;
    exec_vm = Some vm;
    guestx = None;
    nested_hv = None;
  }

let nested_guest ?ksm_config ?(guestx_memory_mb = 2048) ?config ctx =
  let ctx, uplink, host = make_host ?ksm_config ctx in
  let guestx_config =
    { (Qemu_config.default ~name:"guestx") with Qemu_config.memory_mb = guestx_memory_mb }
    |> fun c -> Qemu_config.with_nested_vmx c true
  in
  let guestx = get_ok "nested_guest(guestx)" (Hypervisor.launch host guestx_config) in
  let nested_hv =
    get_ok "nested_guest(hv)" (Hypervisor.create_nested ctx ~vm:guestx ~name:"guestx-kvm")
  in
  let config = match config with Some c -> c | None -> guest_config () in
  let vm = get_ok "nested_guest(l2)" (Hypervisor.launch nested_hv config) in
  {
    ctx;
    uplink;
    host;
    exec_level = Vm.level vm;
    exec_ram = Vm.ram vm;
    exec_vm = Some vm;
    guestx = Some guestx;
    nested_hv = Some nested_hv;
  }

type migration_pair = {
  mp_ctx : Sim.Ctx.t;
  mp_host : Hypervisor.t;
  mp_source : Vm.t;
  mp_dest : Vm.t;
  mp_guestx : Vm.t option;
  mp_nested_hv : Hypervisor.t option;
}

let migration_pair ?ksm_config ?config ~nested_dest ctx =
  let ctx, _uplink, host = make_host ?ksm_config ctx in
  let config = match config with Some c -> c | None -> guest_config () in
  let source = get_ok "migration_pair(source)" (Hypervisor.launch host config) in
  let dest_config =
    Qemu_config.with_incoming (Qemu_config.with_name config "dest") ~port:5601
  in
  if not nested_dest then begin
    let dest = get_ok "migration_pair(dest)" (Hypervisor.launch host dest_config) in
    { mp_ctx = ctx; mp_host = host; mp_source = source; mp_dest = dest;
      mp_guestx = None; mp_nested_hv = None }
  end
  else begin
    let guestx_config =
      Qemu_config.with_nested_vmx
        { (Qemu_config.default ~name:"guestx") with
          Qemu_config.memory_mb = config.Qemu_config.memory_mb * 2;
          monitor_port = config.Qemu_config.monitor_port + 1;
        }
        true
    in
    let guestx = get_ok "migration_pair(guestx)" (Hypervisor.launch host guestx_config) in
    let nested_hv =
      get_ok "migration_pair(hv)" (Hypervisor.create_nested ctx ~vm:guestx ~name:"guestx-kvm")
    in
    let dest = get_ok "migration_pair(nested dest)" (Hypervisor.launch nested_hv dest_config) in
    { mp_ctx = ctx; mp_host = host; mp_source = source; mp_dest = dest;
      mp_guestx = Some guestx; mp_nested_hv = Some nested_hv }
  end

let of_level ctx level =
  match Level.to_int level with
  | 0 -> bare_metal ctx
  | 1 -> single_guest ctx
  | 2 -> nested_guest ctx
  | n -> invalid_arg (Printf.sprintf "Layers.of_level: L%d topology not predefined" n)
