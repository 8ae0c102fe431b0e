(** Filebench workload (paper Fig 4's I/O-intensive case).

    A fileserver-style personality: create / write / read / delete over
    a bounded file-cache working set. I/O-intensive but with a limited
    unique-dirty footprint, which is why its migration cost sits close
    to idle and far from the kernel compile in Fig 4. *)

type config = {
  working_set_mb : int;  (** page-cache region it recycles (default 96) *)
  ops_per_second : float;  (** filebench op rate (default 8000) *)
  dirty_pages_per_second : float;  (** unique page dirty rate (default 2000) *)
}

val background : ?config:config -> unit -> Background.spec
