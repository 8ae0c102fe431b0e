(** Serialised VM state for cross-host moves.

    {!Precopy}/{!Postcopy} drive a live migration between two VMs that
    share one engine. A fleet move crosses engines (and possibly
    domains), so only inert data may travel: a {!descriptor} captures a
    VM's identity and nonzero page contents on the source host, rides a
    shard mailbox ({!Sim.Parallel.run_sharded}), and is resumed on the
    destination hypervisor as an incoming launch. Capture and resume
    are deterministic: pages are recorded and replayed in ascending
    page order. *)

type descriptor = {
  vm_name : string;
  memory_mb : int;
  os_release : string;
  pages : (int * Memory.Page.Content.t) list;
      (** nonzero pages, ascending page index *)
}

val capture : Vmm.Vm.t -> descriptor
(** Snapshot the VM's RAM (zero pages elided). The VM is left running -
    the fleet churn layer decides when to kill the source copy. *)

val page_count : descriptor -> int
(** Test hook: tests check that only nonzero pages travel. *)

val resume :
  Vmm.Hypervisor.t -> incoming_port:int -> descriptor -> (Vmm.Vm.t, string) result
(** Launch the VM on the destination as an incoming migration, replay
    the captured pages into its RAM, and complete the handover (the VM
    ends [Running]). [Error] if the launch is refused - duplicate name
    or insufficient host RAM - in which case the destination is left
    untouched; the caller decides whether to retry elsewhere. *)
