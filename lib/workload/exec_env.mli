(** Workload execution environment.

    Everything a workload generator needs to run "somewhere": an engine
    to account virtual time on, the virtualization level that the cost
    model prices operations at, the RAM it dirties, and the VM whose I/O
    counters it bumps (absent at L0). *)

type t = {
  ctx : Sim.Ctx.t;  (** the instance context workloads run against *)
  engine : Sim.Engine.t;  (** [Sim.Ctx.engine ctx], cached for the hot paths *)
  level : Vmm.Level.t;
  ram : Memory.Address_space.t;
  rng : Sim.Rng.t;
  vm : Vmm.Vm.t option;
  noise_rsd : float;  (** run-to-run jitter applied to measured workloads *)
}

val of_layers : ?noise_rsd:float -> Vmm.Layers.env -> t
(** Adopt a {!Vmm.Layers.env} topology (default noise 2 %). *)

val make :
  ?noise_rsd:float ->
  ?vm:Vmm.Vm.t ->
  ctx:Sim.Ctx.t ->
  level:Vmm.Level.t ->
  ram:Memory.Address_space.t ->
  rng:Sim.Rng.t ->
  unit ->
  t
(** An environment at [level] over [ram] (default noise 2 %). Test hook:
    only test_workload's environments set [noise_rsd], to 0 for exact
    timings or to a chosen jitter. *)

val consume : t -> Vmm.Cost_model.op -> int -> Sim.Time.t
(** [consume env op n]: price [n] ops at the env's level with noise,
    advance the engine by the total, account CPU time and exits to the
    VM, and return the elapsed time. *)

val dirty_random : t -> int -> unit
(** Dirty [n] uniformly random RAM pages. *)

val dirty_sequential : t -> cursor:int ref -> int -> unit
(** Dirty [n] pages starting at [!cursor], wrapping; advances the
    cursor. Models streaming writers (object files, logs) that touch
    fresh pages continuously. *)

val dirty_region : t -> offset:int -> length:int -> int -> unit
(** Dirty [n] random pages within [offset, offset+length): a bounded
    working set (file-server caches). *)
