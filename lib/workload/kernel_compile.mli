(** Linux kernel compile workload (paper Figs 2 and 4).

    Decompress-and-compile of Linux 4.0.5, modelled as a stream of
    compile units, each a gcc invocation: CPU-heavy, fork/exec, a burst
    of fresh page faults (the dominant nested-virtualization cost), and
    object-file writes. The paper's footnote 1 applies: ccache was
    enabled on L0 only, which is why L0 looks 280 % faster than L1 -
    {!run} reproduces that by default and [~ccache_at_l0:false] shows
    the honest comparison. *)

type config = {
  compile_units : int;  (** translation units (default 2600) *)
  unit_cpu : Sim.Time.t;  (** bare-metal CPU per unit (default 330 ms) *)
  ccache_hit_factor : float;
      (** fraction of CPU left when ccache hits (default 0.26) *)
  unit_sw_exits : float;  (** I/O exits per unit (default 50) *)
  unit_hw_faults : float;
      (** fresh page faults per unit that L0 must emulate at L2
          (default 58 000) *)
  dirty_pages_per_unit : int;  (** object/page-cache pages written (default 8) *)
}

val run : ?ccache_at_l0:bool -> ?config:config -> Exec_env.t -> Sim.Time.t
(** Execute the full compile on the environment's clock and return its
    duration - the Fig 2 measurement. [ccache_at_l0] (default true)
    reproduces the paper's asymmetric ccache setup. *)

val background : ?config:config -> ?pages_per_second:float -> unit -> Background.spec
(** The same workload as a migration-time dirtier: a sequentially
    advancing write cursor (object files land on fresh page-cache pages)
    at [pages_per_second] (default 10 150 - about 40 MB/s, a hot
    single-job compile). *)
