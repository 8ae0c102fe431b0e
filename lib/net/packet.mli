(** Network packets.

    Carried payloads are plain strings so that the rootkit's passive
    (capture, keystroke logging) and active (modify, drop) services have
    something meaningful to observe and tamper with. *)

type addr = string
(** Node address, e.g. ["10.0.0.5"]. *)

type port = int

type endpoint = {
  addr : addr;
  port : port;
}

type t = {
  id : int;
  src : endpoint;
  dst : endpoint;
  size_bytes : int;
  payload : string;
  encrypted : bool;
      (** When true, intermediaries that capture the packet see
          ciphertext; the pre-encryption write-trap service exists
          precisely because of such packets. *)
}

val make :
  ?encrypted:bool -> ?size_bytes:int -> id:int -> src:endpoint -> dst:endpoint -> string -> t
(** [size_bytes] defaults to the payload length plus a 54-byte
    Ethernet+IP+TCP header estimate. *)

val endpoint : addr -> port -> endpoint

val visible_payload : t -> string
(** What an on-path observer reads: the payload, or ["<ciphertext>"] if
    the packet is encrypted. *)
