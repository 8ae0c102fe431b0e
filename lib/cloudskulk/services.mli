(** Malicious services on an installed RITM (paper Section IV-B).

    {e Passive} services observe: packet capture, keystroke logging,
    pre-encryption write trapping, and running a parallel malicious OS
    beside the victim. {e Active} services tamper: dropping and
    rewriting victim traffic. All of them live at L1 - inside GuestX -
    and touch nothing in the victim's kernel, which is what makes the
    rootkit invisible to guest-side integrity checking. *)

type capture = {
  at : Sim.Time.t;
  packet : Net.Packet.t;
  observed_payload : string;  (** ciphertext for encrypted packets *)
}

(** {2 Passive services} *)

type sniffer

val start_packet_capture : Ritm.t -> sniffer
(** Record every packet crossing GuestX. *)

val captures : sniffer -> capture list

type keylogger

val start_keylogger : Ritm.t -> ports:int list -> keylogger
(** Record payloads of victim-bound traffic on interactive ports
    (e.g. SSH port 22). *)

val keystrokes : keylogger -> string list

type write_trap

val trap_guest_writes : Ritm.t -> write_trap
(** Hook the victim's write system calls from L1: plaintext is recorded
    {e before} the guest encrypts it - defeating transport encryption. *)

val trapped_writes : write_trap -> string list
val untrap_guest_writes : Ritm.t -> write_trap -> unit
(** Test hook: one of the paper's RITM services, which no experiment runs;
    tests drive it. *)

val launch_parallel_os : Ritm.t -> name:string -> memory_mb:int -> (Vmm.Vm.t, string) result
(** A separate malicious OS beside the victim under the same nested
    hypervisor (spam relay, phishing host, DDoS zombie). *)

(** {2 Active services} *)

type active_stats = {
  mutable dropped : int;
  mutable rewritten : int;
}

val drop_traffic : Ritm.t -> port:int -> active_stats
(** Silently drop victim traffic to a port (e.g. suppress outgoing
    mail). Test hook: one of the paper's RITM services, which no experiment
    runs; tests drive it. *)

val rewrite_traffic :
  Ritm.t -> port:int -> pattern:string -> replacement:string -> active_stats
(** Rewrite matching payload substrings in flight (e.g. tamper with web
    responses). Encrypted payloads pass unmodified. *)

(** {2 Victim-side traffic helper}

    Simulated applications inside the victim use this to send data; it
    reports the plaintext to the guest's write-syscall layer (where a
    write trap may listen) and then emits the - possibly encrypted -
    packet through the RITM toward the outside world. *)

val victim_send :
  Ritm.t -> dst:Net.Packet.endpoint -> ?encrypted:bool -> string -> unit
(** [encrypted] defaults to [false]. Test hook: no experiment sends
    victim traffic; test_cloudskulk's "encryption hides payloads from the
    sniffer" and examples/attack_demo.ml send it encrypted. *)
