(** VMCS memory signatures.

    When a hypervisor uses Intel VT-x to run a guest, a Virtual Machine
    Control Structure lives in its memory. Graziano et al.'s forensic
    approach (discussed in paper Section VI-E) detects hypervisors by
    scanning RAM for this structure's layout. We model it as a
    recognisable page content that hardware-assisted launches leave in
    their host's memory - and that software-emulated nesting does not,
    which is exactly the evasion the paper points out. *)

val signature_content : slot:int -> Memory.Page.Content.t
(** Content of the VMCS page for a given VM slot. *)

val is_signature : Memory.Page.Content.t -> bool
(** Does this page content look like a VMCS? Test hook: {!scan} applies it
    to every page; tests check single pages. *)

val scan : Memory.Address_space.t -> int list
(** Page indices within a space whose contents match a VMCS. *)
