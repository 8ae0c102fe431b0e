type state =
  | Created
  | Incoming
  | Running
  | Paused
  | Stopped

let state_to_string = function
  | Created -> "created"
  | Incoming -> "incoming"
  | Running -> "running"
  | Paused -> "paused"
  | Stopped -> "stopped"

type io_counters = {
  mutable block_read_ops : int;
  mutable block_write_ops : int;
  mutable net_tx_bytes : int;
  mutable net_rx_bytes : int;
  mutable vm_exits : int;
  mutable cpu_time : Sim.Time.t;
}

type t = {
  engine : Sim.Engine.t;
  config : Qemu_config.t;
  level : Level.t;
  ram : Memory.Address_space.t;
  disk : Disk_image.t;
  mutable qemu_pid : Process_table.pid;
  addr : Net.Packet.addr;
  trace : Sim.Trace.t;
  telemetry : Sim.Telemetry.t option;
  m_exits : Sim.Telemetry.counter;
  m_fanout : Sim.Telemetry.counter;
  mutable state : state;
  mutable node : Net.Fabric.Node.t option;
  io : io_counters;
  mutable guest_processes : Process_table.t;
  mutable os_release : string;
  mutable loaded_files : (string, int * int) Hashtbl.t;  (* name -> (offset, pages) *)
  mutable next_file_page : int;
  mutable migrate_handler : (host:string -> port:int -> (unit, string) result) option;
  mutable migrate_cancel_requested : bool;
  mutable recover_handler : (unit -> (unit, string) result) option;
  mutable migration_stats : string option;
  mutable write_taps : (string * (string -> unit)) list;
  mutable guest_time_scale : float;
  mutable cpu_throttle : float;
  mutable spoofs_benchmarks : bool;
}

(* A booted guest has a recognisable init and kernel threads; VMI
   fingerprinting reads these. *)
let boot_processes table =
  ignore (Process_table.spawn table ~name:"systemd" ~cmdline:"/usr/lib/systemd/systemd");
  ignore (Process_table.spawn table ~name:"kthreadd" ~cmdline:"[kthreadd]");
  ignore (Process_table.spawn table ~name:"sshd" ~cmdline:"/usr/sbin/sshd -D")

let make ctx ~config ~level ~ram ~disk ~qemu_pid ~addr =
  let engine = Sim.Ctx.engine ctx in
  let telemetry = Sim.Ctx.telemetry ctx in
  let guest_processes = Process_table.create engine in
  boot_processes guest_processes;
  let level_label = [ ("level", string_of_int (Level.to_int level)) ] in
  {
    engine;
    config;
    level;
    ram;
    disk;
    qemu_pid;
    addr;
    trace = Sim.Ctx.trace ctx;
    telemetry;
    m_exits = Sim.Telemetry.counter telemetry ~labels:level_label ~component:"vmm" "exits_total";
    m_fanout =
      Sim.Telemetry.counter telemetry ~labels:level_label ~component:"vmm"
        "nested_exit_fanout_total";
    state = Created;
    node = None;
    io =
      {
        block_read_ops = 0;
        block_write_ops = 0;
        net_tx_bytes = 0;
        net_rx_bytes = 0;
        vm_exits = 0;
        cpu_time = Sim.Time.zero;
      };
    guest_processes;
    os_release = "Fedora 22, Linux 4.4.14-200.fc22.x86_64";
    loaded_files = Hashtbl.create 8;
    (* Reserve the first quarter of RAM for the guest kernel and its
       anonymous memory; file loads go above it. *)
    next_file_page = Memory.Address_space.pages ram / 4;
    migrate_handler = None;
    migrate_cancel_requested = false;
    recover_handler = None;
    migration_stats = None;
    write_taps = [];
    guest_time_scale = 1.0;
    cpu_throttle = 0.;
    spoofs_benchmarks = false;
  }

let emit t fmt =
  Sim.Trace.emitf t.trace (Sim.Engine.now t.engine) Sim.Trace.Info
    ~component:("vm:" ^ t.config.Qemu_config.vm_name)
    fmt

let name t = t.config.Qemu_config.vm_name
let engine t = t.engine
let config t = t.config
let level t = t.level
let ram t = t.ram
let disk t = t.disk

let disk_write t ~bytes =
  Disk_image.guest_write t.disk ~bytes;
  t.io.block_write_ops <- t.io.block_write_ops + 1

let qemu_pid t = t.qemu_pid
let set_qemu_pid t pid = t.qemu_pid <- pid
let addr t = t.addr
let io t = t.io
let telemetry t = t.telemetry

let record_exits t n =
  t.io.vm_exits <- t.io.vm_exits + n;
  Sim.Telemetry.add t.m_exits n

let record_nested_fanout t n = Sim.Telemetry.add t.m_fanout n
let guest_processes t = t.guest_processes
let os_release t = t.os_release
let set_os_release t s = t.os_release <- s
let state t = t.state

let transition t ~from ~to_ what =
  if List.exists (fun s -> s = t.state) from then begin
    t.state <- to_;
    emit t "%s (now %s)" what (state_to_string to_);
    Ok ()
  end
  else
    Error
      (Printf.sprintf "%s: cannot %s from state %s" (name t) what (state_to_string t.state))

let start t = transition t ~from:[ Created ] ~to_:Running "start"
let pause t = transition t ~from:[ Running ] ~to_:Paused "pause"
let resume t = transition t ~from:[ Paused ] ~to_:Running "resume"
let await_incoming t = transition t ~from:[ Created ] ~to_:Incoming "await incoming migration"
let complete_incoming t = transition t ~from:[ Incoming ] ~to_:Running "complete incoming migration"

let stop t =
  if t.state <> Stopped then begin
    t.state <- Stopped;
    emit t "stopped"
  end

let reboot_guest t =
  if t.state <> Running then
    Error (Printf.sprintf "%s: cannot reboot from state %s" (name t) (state_to_string t.state))
  else begin
    for i = 0 to Memory.Address_space.pages t.ram - 1 do
      if not (Memory.Page.Content.is_zero (Memory.Address_space.read t.ram i)) then
        ignore (Memory.Address_space.write t.ram i Memory.Page.Content.zero)
    done;
    t.guest_processes <- Process_table.create t.engine;
    boot_processes t.guest_processes;
    Hashtbl.reset t.loaded_files;
    t.next_file_page <- Memory.Address_space.pages t.ram / 4;
    emit t "guest OS rebooted";
    Ok ()
  end

let is_alive t = t.state <> Stopped
let node t = t.node
let set_node t n = t.node <- Some n

let load_file t file =
  let file_pages = Memory.File_image.pages file in
  let fname = Memory.File_image.name file in
  if Hashtbl.mem t.loaded_files fname then Error (fname ^ " already loaded")
  else if t.next_file_page + file_pages > Memory.Address_space.pages t.ram then
    Error "guest RAM exhausted"
  else begin
    let offset = t.next_file_page in
    t.next_file_page <- t.next_file_page + file_pages;
    Memory.File_image.load_into file t.ram ~offset;
    Hashtbl.replace t.loaded_files fname (offset, file_pages);
    emit t "loaded %s (%d pages) at page %d" fname file_pages offset;
    Ok offset
  end

let file_offset t fname = Option.map fst (Hashtbl.find_opt t.loaded_files fname)

let loaded_files t =
  Hashtbl.fold (fun name (off, pages) acc -> (name, off, pages) :: acc) t.loaded_files []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let adopt_guest_state t ~from =
  t.os_release <- from.os_release;
  t.guest_processes <- from.guest_processes;
  t.loaded_files <- from.loaded_files;
  t.next_file_page <- from.next_file_page
let unload_file t fname = Hashtbl.remove t.loaded_files fname

let cpu_throttle t = t.cpu_throttle
let set_cpu_throttle t x = t.cpu_throttle <- Float.max 0. (Float.min 0.99 x)
let guest_time_scale t = t.guest_time_scale

let set_guest_time_scale t scale =
  if scale <= 0. then invalid_arg "Vm.set_guest_time_scale: scale must be positive";
  t.guest_time_scale <- scale

let observe_duration t d = Sim.Time.mul d t.guest_time_scale
let set_spoofs_benchmarks t v = t.spoofs_benchmarks <- v
let spoofs_benchmarks t = t.spoofs_benchmarks

let trap_write_syscalls t ~name f = t.write_taps <- t.write_taps @ [ (name, f) ]
let untrap_write_syscalls t ~name = t.write_taps <- List.filter (fun (n, _) -> n <> name) t.write_taps
let emit_write t data = List.iter (fun (_, f) -> f data) t.write_taps

let set_migrate_handler t f = t.migrate_handler <- Some f
let migrate_handler t = t.migrate_handler

let request_migrate_cancel t = t.migrate_cancel_requested <- true
let migrate_cancel_requested t = t.migrate_cancel_requested

let take_migrate_cancel t =
  let r = t.migrate_cancel_requested in
  t.migrate_cancel_requested <- false;
  r

let set_recover_handler t h = t.recover_handler <- h
let recover_handler t = t.recover_handler

let set_migration_stats t s = t.migration_stats <- Some s
let migration_stats t = t.migration_stats
