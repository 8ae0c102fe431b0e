(** Pages and page contents.

    The simulator does not store real page bytes; a page's content is a
    64-bit digest. Two pages are "identical" (mergeable by KSM) exactly
    when their digests are equal, which is the property the CloudSkulk
    detector depends on. *)

val size_bytes : int
(** 4096, as on the paper's x86 testbed. *)

val pages_of_bytes : int -> int
(** Number of pages needed to hold the given byte count (rounds up). *)

module Content : sig
  type t
  (** Digest of one page's contents. *)

  val zero : t
  (** The all-zeroes page (what fresh RAM holds). *)

  val of_int : int -> t
  (** Deterministic distinct content per integer tag. *)

  val random : Sim.Rng.t -> t

  val mutate : t -> salt:int -> t
  (** [mutate c ~salt] is a content derived from [c] but different from
      it - "slightly change each page" in the paper's Step 2. *)

  val of_int64 : int64 -> t
  (** Structured content with a caller-chosen bit layout - used to model
      recognisable in-memory structures (e.g. a VMCS) that scanners can
      grep for. *)

  val to_int64 : t -> int64

  val equal : t -> t -> bool
  val hash : t -> int
  val is_zero : t -> bool
end
