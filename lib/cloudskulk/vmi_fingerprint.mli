(** VMI fingerprint baseline (paper Section VI-E).

    A virtual-machine-introspection check the administrator might run:
    compare what the VM {e should} look like (recorded at provisioning
    time) against what introspection reads now - OS release, the set of
    expected processes, and the device configuration. The paper notes
    attackers evade it by making the L1 hypervisor run the same OS and
    programs as the victim; {!Stealth.impersonate_os} is exactly that
    move, and the tests show the fingerprint passing on an impersonated
    GuestX while the dedup detector still fires. *)

type fingerprint = {
  os_release : string;
  process_names : string list;  (** sorted, deduplicated *)
  memory_mb : int;
  nic_model : string;
  disk_image : string;
}

val take : Vmm.Vm.t -> fingerprint
(** Introspect a VM now. *)

type mismatch = {
  field : string;
  expected : string;
  actual : string;
}

val check : expected:fingerprint -> Vmm.Vm.t -> (unit, mismatch list) result
