(** Host-side behavioral auditing.

    A defence-in-depth extension beyond the paper's detector: instead of
    probing memory state, audit the host for the {e footprints} a
    CloudSkulk installation leaves behind. None of these is individually
    conclusive (that is what the dedup detector is for), but each is
    cheap, and together they catch the attack both mid-installation and
    after the fact:

    - {e VMX co-launch}: a nested-VMX-capable VM appears while another
      guest with matching devices is running - the RITM staging next to
      its target.
    - {e local incoming endpoint}: a VM paused in the incoming state on
      the same host as a compatible running VM - a single-host live
      migration, which clouds rarely do legitimately.
    - {e PID/start-time inversion}: a process whose PID is older than
      its start time relative to its neighbours - the residue of the
      attacker's PID spoof.
    - {e forward to a VMX guest}: a public port-forward terminating at a
      guest that can itself host VMs - the victim's SSH now lands on a
      hypervisor.
    - {e VMCS signature}: delegated to {!Vmcs_scan}. *)

type code =
  | Vmx_colaunch
  | Local_incoming
  | Pid_inversion
  | Forward_to_vmx_guest
  | Vmcs_signature

type severity = Info | Suspicious | Alarm

type finding = {
  code : code;
  severity : severity;
  subject : string;  (** the VM / process / rule concerned *)
  message : string;
}

val audit : Vmm.Hypervisor.t -> finding list
(** One sweep over the host's current state. An empty list means no
    footprint was seen {e right now} - it does not prove absence. *)

val is_alarming : finding list -> bool
(** Any finding at [Alarm], or two or more at [Suspicious]. *)

val pp_finding : Format.formatter -> finding -> unit
