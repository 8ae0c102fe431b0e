(** VMCS memory-forensics baseline (paper Section VI-E).

    Graziano et al.'s approach: scan each L0-visible VM's RAM for the
    layout of an Intel VT-x Virtual Machine Control Structure. Finding
    one inside a guest means that guest is running a hypervisor - i.e. a
    nested VM exists. It works against a default CloudSkulk install, but
    fails by construction when the nested hypervisor avoids VT-x
    (software emulation), which is why the paper positions the
    memory-deduplication approach as the more robust one. *)

type hit = {
  vm : Vmm.Vm.t;  (** the L0 guest whose RAM holds the structure *)
  page_index : int;
  content : Memory.Page.Content.t;
}

type result = {
  hits : hit list;
  vms_scanned : int;
  pages_scanned : int;
  verdict : bool;  (** true = a nested hypervisor was found *)
}

val scan_host : Vmm.Hypervisor.t -> result
(** Sweep every VM on the host. *)
