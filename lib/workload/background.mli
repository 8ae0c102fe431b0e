(** Background workload driver.

    Live-migration experiments need workloads that keep running - and
    keep dirtying guest pages - {e while} the migration rounds are on
    the wire (Fig 4). A background workload is a periodic tick that
    performs its per-tick effects until stopped. *)

type spec = {
  name : string;
  tick : Sim.Time.t;
  action : Exec_env.t -> tick_index:int -> unit;
      (** side effects of one tick: dirty pages, bump I/O counters *)
}

type handle

val start : Exec_env.t -> spec -> handle
(** Begin ticking on the env's engine. *)

val stop : handle -> unit

val ticks : handle -> int
(** Ticks whose work actually ran. *)

val throttled_ticks : handle -> int
(** Ticks lost to the VM's {!Vmm.Vm.cpu_throttle} (auto-converge). *)
