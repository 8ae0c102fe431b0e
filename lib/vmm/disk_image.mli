(** Disk images.

    A thin model of QEMU disk images: virtual size, format, and
    cluster allocation that grows as the guest writes (qcow2's thin
    provisioning). Exists because the paper's reconnaissance uses
    [qemu-img] "to determine the disk size of a running VM"
    (Section IV-A), and because blockstats need something real behind
    them. *)

type format = Qcow2 | Raw

val format_of_string : string -> (format, string) result

type t

val create : name:string -> format:format -> virtual_size_gb:float -> t
(** A fresh image. [Raw] images are fully allocated from the start;
    [Qcow2] images start at a small metadata footprint. *)

val virtual_size_bytes : t -> int
(** Test hook: tests check qcow2 allocation against it. *)

val allocated_bytes : t -> int
(** Bytes backed by clusters on the host filesystem. *)

val guest_write : t -> bytes:int -> unit
(** Guest writes allocate clusters (first touch); rewrites of already
    allocated space are modelled by the allocation simply capping at the
    virtual size. *)

val cluster_bytes : int
(** 64 KiB, qcow2's default. Test hook: tests check that qcow2 allocates
    whole clusters. *)

val qemu_img_info : t -> string
(** The [qemu-img info] rendering the attacker reads. *)

val parse_virtual_size : string -> (float, string) result
(** Recover the virtual size in GiB from a [qemu_img_info] output - the
    reconnaissance direction. *)
