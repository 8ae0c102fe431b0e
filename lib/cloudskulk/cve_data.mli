(** VM-escape vulnerability dataset (paper Table I).

    The CVE identifiers of VM-escape vulnerabilities reported between
    2015 and 2020, per hypervisor - the evidence behind the threat
    model's assumption that escaping to the host is realistic. *)

type hypervisor = Vmware | Virtualbox | Xen | Hyperv | Kvm_qemu

val hypervisors : hypervisor list
(** Test hook: with {!years} it lets the Table I tests walk every cell;
    experiments print {!render_table}. *)

val years : int list
(** 2015 through 2020. Test hook: with {!hypervisors} it lets the Table I
    tests walk every cell. *)

val cves : hypervisor -> year:int -> string list
(** CVE identifiers for one cell of the table. Test hook: the Table I tests
    look up single identifiers and check that none repeats. *)

val count : hypervisor -> year:int -> int
(** Test hook: the Table I tests check single cells against the paper. *)

val total : hypervisor -> int
val grand_total : int

val render_table : unit -> string
(** The counts table, matching the paper's totals row
    (29/15/15/14/23). *)
