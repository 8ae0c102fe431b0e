(** Deterministic multicore fan-out of independent trials.

    Experiments repeat independent trials - each trial builds its own
    {!Engine} from its own seed - so they parallelise perfectly: this
    module fans trial bodies across OCaml 5 domains and returns the
    results in trial order, making the output bit-identical to a
    sequential run regardless of the number of workers.

    Trial functions must be self-contained: build every engine, RNG and
    substrate object inside the call, share nothing mutable with other
    trials, and return data instead of printing (the caller renders
    results in order afterwards). All code under [lib/] follows this
    discipline already - nothing in the simulator has global mutable
    state. *)

val available_cores : unit -> int
(** The runtime's recommended domain count for this machine. Test hook:
    [jobs = 0] resolves to it; tests check that it is positive. *)

val map : ?jobs:int -> int -> (int -> 'a) -> 'a list
(** [map ~jobs n f] is [List.init n f], computed by up to [jobs] worker
    domains pulling trial indices from a shared counter. Results are
    returned in index order. [jobs <= 1] (the default) runs sequentially
    in the calling domain; [jobs = 0] means {!available_cores}. If any
    trial raises, the exception of the lowest-indexed failing trial is
    re-raised, with its backtrace, after all workers finish. *)

val map_ctx :
  ?jobs:int -> ?seed_of:(int -> int) -> ctx:Ctx.t -> trials:int -> (int -> Ctx.t -> 'a) ->
  'a list
(** [map_ctx ~ctx ~trials f] runs [f i child] for [i] in
    [0 .. trials - 1] via {!map}, where [child] is a deterministic child
    context: {!Ctx.with_seed} of [ctx] at [seed_of i] (default
    [Ctx.seed ctx + i] - the canonical derivation scheme). When [ctx]
    carries a telemetry sink each child gets its own fresh sink
    ({!Telemetry.create_like}); after all trials finish the children are
    folded into the parent with {!Telemetry.merge_into} in ascending
    trial order, each span tagged with a ["trial"] field (1-based).
    Because the seed derivation and the merge order are fixed, both the
    results and the parent's exported metrics are byte-identical
    whatever [jobs] is. *)

type ('w, 'msg) sharded = {
  world : 'w;  (** the member's state, returned after the run *)
  deliver : now:Time.t -> src:int -> 'msg list -> unit;
      (** hand over mail posted to this member during the previous
          epoch. Called with the member's groups in ascending [src],
          each group in post order, before the epoch's [step]. *)
  step : until:Time.t -> post:(dst:int -> 'msg -> unit) -> unit;
      (** advance the member's world to the barrier clock [until],
          posting any cross-member messages through [post]. [post] may
          only be called during [step] (the outbox is exchanged at the
          barrier). *)
}
(** One member of a sharded run: a sub-world plus its mailbox hooks. *)

exception Member_failed of {
  seed : int;  (** the root seed, [Ctx.seed ctx] *)
  member : int;
  epoch : int;
      (** 0-based epoch index; the horizon flush counts as the epoch
          after the last one *)
  at : Time.t;  (** the epoch's closing barrier ([until] for the flush) *)
  exn : exn;  (** what the member raised *)
}
(** A member's [deliver] or [step] raised inside {!run_sharded}. It
    carries the original exception and its backtrace, and enough
    context to replay the member alone: a member's history depends only
    on [(seed, member)] and its inbox. A printer is registered with
    {!Printexc}. *)

val run_sharded :
  ?jobs:int ->
  ?shards:int ->
  ctx:Ctx.t ->
  members:int ->
  epoch:Time.t ->
  until:Time.t ->
  (member:int -> Ctx.t -> ('w, 'msg) sharded) ->
  'w array
(** [run_sharded ~shards ~ctx ~members ~epoch ~until init] partitions
    ONE trial across domains: [members] independent sub-worlds advance
    in lockstep to time barriers every [epoch] of simulated time, up to
    the horizon [until]. Barrier [k] sits at [min ((k+1) * epoch, until)].
    Each member posts into its own outbox during an epoch; at the
    barrier the outboxes are exchanged into per-member inboxes, groups
    in ascending [src], each group in post order.

    Each member - not each shard - gets its own context from
    {!Ctx.fork_member}, so what a member simulates depends only on
    [(Ctx.seed ctx, member)]; shard [s] merely advances the contiguous
    block of members [s*members/shards .. (s+1)*members/shards). Together
    with the canonical delivery order this makes the results, the trace,
    and the merged telemetry {e byte-identical for every}
    [shards]/[jobs] {e combination} (shards execute via {!map}, so
    [jobs] only bounds worker domains). Epoch choice is the modelling
    contract: messages posted during an epoch arrive at its closing
    barrier, which is faithful only when [epoch <=] the minimum
    cross-member latency being simulated (DESIGN.md §14).

    When [ctx] carries a telemetry sink, each member gets a
    {!Telemetry.create_like} child, merged into the parent in member
    order after the run, spans tagged with a 1-based ["member"] field.
    The run itself contributes [sim_shard_epochs_total],
    [sim_shard_messages_total] and [sim_shard_members] - all
    partition-invariant by the argument above. Mail still undelivered
    when the horizon closes is flushed to [deliver] at [until] in
    member order, so in-flight exchanges land before the run returns.

    An exception from a member's [deliver] or [step] escapes as
    {!Member_failed}; within an epoch the lowest failing member is
    reported, whatever [shards] and [jobs] are. Raises
    [Invalid_argument] for a non-positive or infinite [epoch], an
    infinite or negative [until], a negative [members], or (at the
    epoch's barrier) a [post] to a destination outside [0, members). *)
