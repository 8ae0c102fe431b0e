(** Write-timing probe.

    The measurement primitive of the CloudSkulk detector: write one byte
    to each page of a buffer and record how long each write takes. Writes
    to KSM-merged pages are much slower (copy-on-write fault) than writes
    to private pages, so the per-page timing vector reveals which pages
    were shared - without any cooperation from the guest. *)

type sample = {
  page_index : int;
  kind : Address_space.write_kind;
  cost : Sim.Time.t;
}

type result = {
  samples : sample list;  (** one per probed page, in page order *)
  total : Sim.Time.t;
  cow_breaks : int;  (** pages that were merged when probed *)
}

val probe :
  ?params:Mem_params.t ->
  rng:Sim.Rng.t ->
  Address_space.t ->
  offset:int ->
  pages:int ->
  result
(** Touch [pages] consecutive pages starting at [offset], rewriting each
    page with freshly-mutated content (so the probe itself never leaves
    two identical pages behind). Each write is timed with {!Mem_params}.
    The probe has the same side effect as the real detector's write loop:
    merged pages get unshared. [params] defaults to {!Mem_params.default}.
    Test hook: only test_memory sets [params], to noiseless costs
    ("private pages probe fast, merged slow", "noiseless costs match
    parameters"). *)

val mean_cost : result -> Sim.Time.t
val costs_ns : result -> float array

val fraction_cow : result -> float
(** Fraction of probed pages that were merged. *)
