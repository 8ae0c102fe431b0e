(** Target reconnaissance (paper Section IV-A).

    Before building the RITM, the attacker - already root on the host -
    must recover the target VM's exact QEMU configuration, because live
    migration requires a matching destination. Two paths are modelled,
    as in the paper: reading the QEMU command line from the process
    table ([ps -ef]), and interrogating the running VM's QEMU monitor
    ([info qtree], [info blockstats], [info mtree], [info network]). *)

type finding = {
  vm : Vmm.Vm.t;
  qemu_pid : Vmm.Process_table.pid;
  cmdline : string;
  config : Vmm.Qemu_config.t;  (** as recovered from the command line *)
}

val list_targets : Vmm.Hypervisor.t -> finding list
(** Every QEMU process on the host whose command line parses and whose
    VM is alive - the attacker's candidate set. *)

val find_target : Vmm.Hypervisor.t -> name:string -> (finding, string) result
(** Locate one VM by name. *)

type monitor_probe = {
  status : string;
  qtree : string;
  blockstats : string;
  mtree : string;
  network : string;
}

val probe_monitor : Vmm.Vm.t -> monitor_probe
(** The monitor-based path: what the attacker learns without [ps].
    Test hook: the install finds its target with {!find_target}; tests drive
    this other reconnaissance path of the paper. *)

val verify_config : finding -> (unit, string) result
(** Cross-check the parsed config against monitor output (memory size
    and device model must agree) - the attacker's sanity check before
    committing to the migration. *)

val probe_disk : Vmm.Hypervisor.t -> finding -> (float, string) result
(** The [qemu-img] path: read the target's image off the host's storage
    and recover its virtual size in GiB (Section IV-A's "determine the
    disk size of a running VM").
Test hook: the install finds its target with {!find_target}; tests drive
    this other reconnaissance path of the paper. *)
