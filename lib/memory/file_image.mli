(** File images (the detector's File-A).

    The detection protocol needs a file whose pages are {e unique} - no
    page of it coincides with any other page in the system - plus the
    ability to derive a "slightly changed" second version (File-A-v2). *)

type t

val generate : Sim.Rng.t -> name:string -> pages:int -> t
(** A fresh file of distinct random page contents. *)

val of_contents : name:string -> Page.Content.t array -> t

val name : t -> string
val pages : t -> int
val bytes : t -> int
(** Test hook: tests check File-A's size against the paper's 400 KB. *)

val content : t -> int -> Page.Content.t
(** Test hook: tests compare File-A and File-A-v2 page by page. *)

val mutate_all : t -> salt:int -> t
(** File-A-v2: every page's content changed slightly (deterministically
    per [salt]), no page equal to the original's. Test hook: the
    detector changes File-A inside the guest instead; tests check the
    paper's File-A-v2 derivation here. *)

val load_into : t -> Address_space.t -> offset:int -> unit
(** Write the file's pages into consecutive pages of a space. *)

val matches : t -> Address_space.t -> offset:int -> bool
(** Does the space hold exactly this file's contents at [offset]? Test hook:
    tests check that a file reached a guest's memory. *)

val all_pages_distinct : t -> bool
(** The uniqueness property the protocol assumes. *)
