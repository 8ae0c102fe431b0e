(** Filebench workload (paper Fig 4's I/O-intensive case).

    A fileserver-style personality: create / write / read / delete over
    a bounded file-cache working set. I/O-intensive but with a limited
    unique-dirty footprint, which is why its migration cost sits close
    to idle and far from the kernel compile in Fig 4. It recycles a
    96 MB page-cache region at 8000 ops/s and dirties 2000 unique pages
    per second. *)

val background : unit -> Background.spec
