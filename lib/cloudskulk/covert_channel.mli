(** Cross-VM covert channel over memory deduplication.

    The detector's timing primitive cuts both ways: the paper's
    reference [41] (Xiao et al., DSN'13) showed co-resident VMs can
    signal covertly through KSM. A sender and receiver share a codebook
    of unique page contents, one per bit slot. To send a 1, the sender
    loads that slot's page into its memory; for a 0 it does not. After a
    ksmd pass, the receiver writes to its own copy of each slot page: a
    copy-on-write fault (slow write) means the page was merged - the
    sender had it - so the bit is 1.

    Included because it exercises exactly the same substrate as the
    CloudSkulk detector (merge + CoW timing) from the attacker's
    direction, and because it makes a good property-test target: bits
    in, bits out. *)

type transfer = {
  sent : bool list;
  received : bool list;
  bit_errors : int;
  elapsed : Sim.Time.t;
  bandwidth_bits_per_s : float;  (** virtual-time goodput *)
}

val transmit :
  host:Vmm.Hypervisor.t ->
  sender:Vmm.Vm.t ->
  receiver:Vmm.Vm.t ->
  bool list ->
  (transfer, string) result
(** Move one frame of bits from sender to receiver: one codebook page
    per bit, both parties deriving the codebook from a fixed seed, and
    2.5 full ksmd passes of waiting per frame. Both VMs must have
    room for the codebook pages; the sender's pages are unloaded (by
    overwriting) after the frame so slots can be reused. *)

val string_to_bits : string -> bool list
val bits_to_string : bool list -> string
(** 8-bit big-endian per character; [bits_to_string] truncates a
    trailing partial byte. *)
