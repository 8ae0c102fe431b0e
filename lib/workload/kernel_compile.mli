(** Linux kernel compile workload (paper Figs 2 and 4).

    Decompress-and-compile of Linux 4.0.5, modelled as a stream of
    compile units, each a gcc invocation: CPU-heavy, fork/exec, a burst
    of fresh page faults (the dominant nested-virtualization cost), and
    object-file writes. The paper's footnote 1 applies: ccache was
    enabled on L0 only, which is why L0 looks 280 % faster than L1 -
    {!run} reproduces that by default and [~ccache_at_l0:false] shows
    the honest comparison.

    The build is 2600 units of 330 ms bare-metal CPU each (26 % of that
    on a ccache hit), each making 50 I/O exits, 58 000 fresh page faults
    that L0 must emulate at L2, and 8 dirty object/page-cache pages. *)

val run : ?ccache_at_l0:bool -> Exec_env.t -> Sim.Time.t
(** Execute the full compile on the environment's clock and return its
    duration - the Fig 2 measurement. [ccache_at_l0] (default true)
    reproduces the paper's asymmetric ccache setup. Test hook:
    test_workload's "without the ccache asymmetry L1 is within a few %
    of L0" passes [false]; Fig 2 runs the paper's setup. *)

val background : ?pages_per_second:float -> unit -> Background.spec
(** The same workload as a migration-time dirtier: a sequentially
    advancing write cursor (object files land on fresh page-cache pages)
    at [pages_per_second] (default 10 150 - about 40 MB/s, a hot
    single-job compile). *)
