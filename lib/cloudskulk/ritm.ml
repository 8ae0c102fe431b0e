type ports = {
  migration_host_port : int;
  migration_ritm_port : int;
}

type t = {
  engine : Sim.Engine.t;
  host : Vmm.Hypervisor.t;
  registry : Migration.Registry.t;
  guestx : Vmm.Vm.t;
  nested_hv : Vmm.Hypervisor.t;
  victim : Vmm.Vm.t;
  ports : ports;
  installed_at : Sim.Time.t;
}

let node_exn vm =
  match Vmm.Vm.node vm with
  | Some n -> n
  | None -> invalid_arg (Vmm.Vm.name vm ^ " has no network node")

let guestx_node t = node_exn t.guestx

let is_intact t =
  Vmm.Vm.is_alive t.guestx && Vmm.Vm.is_alive t.victim
  && Vmm.Level.is_nested (Vmm.Vm.level t.victim)
