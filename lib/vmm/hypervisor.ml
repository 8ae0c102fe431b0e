type backing =
  | Physical of Memory.Frame_table.t
  | Guest of { ram : Memory.Address_space.t; mutable floor : int; mutable ceiling : int }
      (** top-down allocator: [floor] is the lowest page nested RAM may
          use (the enclosing guest's own OS lives below), [ceiling] the
          next free page going down. *)

type t = {
  ctx : Sim.Ctx.t;
  engine : Sim.Engine.t;
  hv_name : string;
  level : Level.t;
  backing : backing;
  processes : Process_table.t;
  switch : Net.Fabric.switch;
  uplink : Net.Fabric.switch;
  gateway : Net.Fabric.Node.t;
  ksm : Memory.Ksm.t option;
  trace : Sim.Trace.t;
  telemetry : Sim.Telemetry.t option;
  m_kills : Sim.Telemetry.counter;
  g_vms : Sim.Telemetry.gauge;
  use_vtx : bool;
  images : (string, Disk_image.t) Hashtbl.t;
  mutable vm_list : Vm.t list;
  mutable buffers : Memory.Address_space.t list;
  mutable next_vm_index : int;
}

let emit t fmt =
  Sim.Trace.emitf t.trace (Sim.Engine.now t.engine) Sim.Trace.Info ~component:("hv:" ^ t.hv_name) fmt

let create_l0 ?(ram_gb = 16) ?(ksm_config = Memory.Ksm.default_config) ctx ~name ~uplink
    ~addr =
  let engine = Sim.Ctx.engine ctx in
  let telemetry = Sim.Ctx.telemetry ctx in
  let capacity_frames = ram_gb * 1024 * 1024 * 1024 / Memory.Page.size_bytes in
  let table = Memory.Frame_table.create ~capacity_frames ctx in
  let switch = Net.Fabric.Switch.create ctx ~name:(name ^ "-br0") ~link:Net.Link.loopback in
  let gateway = Net.Fabric.Node.create ~addr in
  Net.Fabric.Node.attach gateway uplink;
  Net.Fabric.Node.attach gateway switch;
  let processes = Process_table.create engine in
  ignore (Process_table.spawn processes ~name:"systemd" ~cmdline:"/usr/lib/systemd/systemd");
  ignore (Process_table.spawn processes ~name:"libvirtd" ~cmdline:"/usr/sbin/libvirtd");
  let ksm = Memory.Ksm.create ~config:ksm_config ctx table in
  Memory.Ksm.start ksm;
  {
    ctx;
    engine;
    hv_name = name;
    level = Level.l0;
    backing = Physical table;
    processes;
    switch;
    uplink;
    gateway;
    ksm = Some ksm;
    trace = Sim.Ctx.trace ctx;
    telemetry;
    m_kills =
      Sim.Telemetry.counter telemetry ~labels:[ ("hv", name) ] ~component:"vmm" "vm_kills_total";
    g_vms =
      Sim.Telemetry.gauge telemetry ~labels:[ ("hv", name) ] ~component:"vmm" "vms_running";
    use_vtx = true;
    images = Hashtbl.create 8;
    vm_list = [];
    buffers = [];
    next_vm_index = 1;
  }

let create_nested ?(use_vtx = true) ctx ~vm ~name =
  let engine = Sim.Ctx.engine ctx in
  let telemetry = Sim.Ctx.telemetry ctx in
  let cfg = Vm.config vm in
  if not cfg.Qemu_config.nested_vmx then
    Error (Vm.name vm ^ ": CPU has no nested VMX (+vmx missing); cannot run a hypervisor")
  else if Vm.state vm <> Vm.Running then
    Error (Vm.name vm ^ ": VM must be running to host a nested hypervisor")
  else
    match Vm.node vm with
    | None -> Error (Vm.name vm ^ ": VM has no network node")
    | Some gateway ->
      let pages = Memory.Address_space.pages (Vm.ram vm) in
      let switch =
        Net.Fabric.Switch.create ctx ~name:(name ^ "-br0") ~link:Net.Link.loopback
      in
      Net.Fabric.Node.attach gateway switch;
      Ok
        {
          ctx;
          engine;
          hv_name = name;
          level = Vm.level vm;
          backing =
            (* The enclosing guest's kernel and userspace occupy the low
               quarter of its RAM; nested VM RAM comes from the top. *)
            Guest { ram = Vm.ram vm; floor = pages / 4; ceiling = pages };
          processes = Vm.guest_processes vm;
          switch;
          (* a nested hypervisor's "outside world" is its enclosing
             guest's own virtual network *)
          uplink = switch;
          gateway;
          ksm = None;
          trace = Sim.Ctx.trace ctx;
          telemetry;
          m_kills =
            Sim.Telemetry.counter telemetry ~labels:[ ("hv", name) ] ~component:"vmm"
              "vm_kills_total";
          g_vms =
            Sim.Telemetry.gauge telemetry ~labels:[ ("hv", name) ] ~component:"vmm"
              "vms_running";
          use_vtx;
          images = Hashtbl.create 8;
          vm_list = [];
          buffers = [];
          next_vm_index = 1;
        }

let processes t = t.processes
let switch t = t.switch
let uplink t = t.uplink
let gateway t = t.gateway
let ksm t = t.ksm
let frame_table t = match t.backing with Physical ft -> Some ft | Guest _ -> None
let telemetry t = t.telemetry
let vms t = t.vm_list
let find_vm t vm_name = List.find_opt (fun vm -> String.equal (Vm.name vm) vm_name) t.vm_list

let alloc_ram t ~vm_name ~pages =
  match t.backing with
  | Physical ft -> (
    try Ok (Memory.Address_space.create_root ft ~name:(vm_name ^ "-ram") ~pages)
    with Memory.Frame_table.Out_of_memory_frames -> Error "host out of memory")
  | Guest g ->
    if g.ceiling - g.floor < pages then
      Error
        (Printf.sprintf "nested hypervisor %s: %d pages requested, %d available" t.hv_name pages
           (g.ceiling - g.floor))
    else begin
      (* With hardware VT-x, launching the nested guest plants a VMCS in
         the enclosing guest's RAM, one page below the allocated block -
         the structure a Graziano-style memory-forensics scan finds. *)
      let vmcs_pages = if t.use_vtx then 1 else 0 in
      g.ceiling <- g.ceiling - pages - vmcs_pages;
      if t.use_vtx then
        ignore
          (Memory.Address_space.write g.ram g.ceiling
             (Vmcs.signature_content ~slot:t.next_vm_index));
      Ok
        (Memory.Address_space.window g.ram ~name:(vm_name ^ "-ram")
           ~offset:(g.ceiling + vmcs_pages) ~pages)
    end

let release_ram t space =
  match t.backing with
  | Physical ft ->
    if Memory.Address_space.is_root space then
      for i = 0 to Memory.Address_space.pages space - 1 do
        Memory.Frame_table.decref ft (Memory.Address_space.frame_at space i)
      done
  | Guest _ ->
    (* Window pages return to the enclosing guest; the simple top-down
       allocator does not reclaim, which matches the short-lived use in
       every experiment. *)
    ()

let install_hostfwd t (vm : Vm.t) =
  let cfg = Vm.config vm in
  List.iter
    (fun (host_port, guest_port) ->
      Net.Fabric.Node.add_forward t.gateway ~from_port:host_port
        ~to_:(Net.Packet.endpoint (Vm.addr vm) guest_port)
        ~via:t.switch)
    cfg.Qemu_config.netdev.Qemu_config.hostfwd

let remove_hostfwd t (vm : Vm.t) =
  let cfg = Vm.config vm in
  List.iter
    (fun (host_port, _) -> Net.Fabric.Node.remove_forward t.gateway ~from_port:host_port)
    cfg.Qemu_config.netdev.Qemu_config.hostfwd

let launch t (config : Qemu_config.t) =
  let vm_name = config.Qemu_config.vm_name in
  if find_vm t vm_name <> None then Error (vm_name ^ ": a VM with this name already exists")
  else
    match alloc_ram t ~vm_name ~pages:(Qemu_config.memory_pages config) with
    | Error e -> Error e
    | Ok ram ->
      let proc =
        Process_table.spawn t.processes ~name:"qemu-system-x86_64"
          ~cmdline:(Qemu_config.to_cmdline config)
      in
      let disk =
        let spec = config.Qemu_config.disk in
        match Hashtbl.find_opt t.images spec.Qemu_config.image with
        | Some img -> img
        | None ->
          let fmt =
            match Disk_image.format_of_string spec.Qemu_config.format with
            | Ok f -> f
            | Error _ -> Disk_image.Qcow2
          in
          let img =
            Disk_image.create ~name:spec.Qemu_config.image ~format:fmt
              ~virtual_size_gb:spec.Qemu_config.size_gb
          in
          Hashtbl.replace t.images spec.Qemu_config.image img;
          img
      in
      let addr = Printf.sprintf "10.%d.0.%d" (Level.to_int t.level) t.next_vm_index in
      t.next_vm_index <- t.next_vm_index + 1;
      let vm =
        Vm.make t.ctx ~config ~level:(Level.deeper t.level) ~ram ~disk ~qemu_pid:proc.pid
          ~addr
      in
      let node = Net.Fabric.Node.create ~addr in
      Net.Fabric.Node.attach node t.switch;
      Vm.set_node vm node;
      install_hostfwd t vm;
      (match t.ksm with
      | Some ksm when Memory.Address_space.is_root ram -> Memory.Ksm.register ksm ram
      | Some _ | None -> ());
      let started =
        match config.Qemu_config.incoming with
        | Some _ -> Vm.await_incoming vm
        | None -> Vm.start vm
      in
      (match started with
      | Ok () -> ()
      | Error e ->
        (* freshly created VMs always accept these transitions *)
        invalid_arg e);
      (* QEMU process startup (option parsing, device realisation, KVM
         init). Guest OS boot time is not modelled: as in the paper's
         installation-time accounting, VMs are prepared ahead of the
         measured window. *)
      ignore (Sim.Engine.run_for t.engine (Sim.Time.ms 300.));
      t.vm_list <- t.vm_list @ [ vm ];
      Sim.Telemetry.incr
        (Sim.Telemetry.counter t.telemetry
           ~labels:[ ("level", string_of_int (Level.to_int (Vm.level vm))) ]
           ~component:"vmm" "vm_launches_total");
      Sim.Telemetry.set t.g_vms (float_of_int (List.length t.vm_list));
      emit t "launched %s (pid %d, addr %s, %a)" vm_name proc.pid addr Level.pp (Vm.level vm);
      Ok vm

let kill_vm t vm =
  if List.memq vm t.vm_list then begin
    t.vm_list <- List.filter (fun v -> not (v == vm)) t.vm_list;
    remove_hostfwd t vm;
    (match Vm.node vm with
    | Some node -> Net.Fabric.Node.detach node t.switch
    | None -> ());
    (match t.ksm with
    | Some ksm when Memory.Address_space.is_root (Vm.ram vm) ->
      Memory.Ksm.unregister ksm (Vm.ram vm)
    | Some _ | None -> ());
    ignore (Process_table.kill t.processes (Vm.qemu_pid vm));
    Vm.stop vm;
    release_ram t (Vm.ram vm);
    Sim.Telemetry.incr t.m_kills;
    Sim.Telemetry.set t.g_vms (float_of_int (List.length t.vm_list));
    emit t "killed %s" (Vm.name vm)
  end

let image t name = Hashtbl.find_opt t.images name

let qemu_img_info t name =
  match image t name with
  | Some img -> Ok (Disk_image.qemu_img_info img)
  | None -> Error (Printf.sprintf "qemu-img: could not open '%s': no such file" name)

let host_buffer t ~name ~pages =
  match t.backing with
  | Guest _ -> Error "host_buffer: only supported on the physical (L0) hypervisor"
  | Physical ft -> (
    try
      let space = Memory.Address_space.create_root ft ~name ~pages in
      (match t.ksm with Some ksm -> Memory.Ksm.register ksm space | None -> ());
      t.buffers <- space :: t.buffers;
      Ok space
    with Memory.Frame_table.Out_of_memory_frames -> Error "host out of memory")

let release_buffer t space =
  if List.memq space t.buffers then begin
    t.buffers <- List.filter (fun b -> not (b == space)) t.buffers;
    (match t.ksm with Some ksm -> Memory.Ksm.unregister ksm space | None -> ());
    release_ram t space
  end
