let available_cores () = Domain.recommended_domain_count ()

type 'a outcome =
  | Value of 'a
  | Raised of exn * Printexc.raw_backtrace

let map ?(jobs = 1) n f =
  if n < 0 then invalid_arg "Parallel.map: negative trial count";
  let jobs = if jobs = 0 then available_cores () else jobs in
  let workers = min jobs n in
  if workers <= 1 then List.init n f
  else begin
    (* Work-stealing by index: each worker pulls the next unclaimed trial.
       Slots are disjoint per trial, and Domain.join publishes the
       writes, so the array needs no lock of its own. *)
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let outcome =
          try Value (f i) with e -> Raised (e, Printexc.get_raw_backtrace ())
        in
        results.(i) <- Some outcome;
        worker ()
      end
    in
    (* Backtrace recording is per domain; workers follow the caller's. *)
    let record = Printexc.backtrace_status () in
    let spawned () =
      Printexc.record_backtrace record;
      worker ()
    in
    let domains = Array.init (workers - 1) (fun _ -> Domain.spawn spawned) in
    worker ();
    Array.iter Domain.join domains;
    (* trial order, lowest failing index wins: identical to sequential.
       The failure scan is an explicit ascending loop because List.init
       does not promise an application order. *)
    for i = 0 to n - 1 do
      match results.(i) with
      | Some (Raised (e, bt)) -> Printexc.raise_with_backtrace e bt
      | Some (Value _) -> ()
      | None -> assert false
    done;
    List.init n (fun i ->
        match results.(i) with
        | Some (Value v) -> v
        | Some (Raised _) | None -> assert false)
  end

(* Telemetry fan-out: when [parent] is a sink, index [i] of [n] gets its
   own child sink (no cross-domain sharing), and once [run] returns the
   children are merged into the parent in index order, each span tagged
   with [field = i + 1]. The merged registry is therefore the same
   whatever domains [run] spreads the indices over. *)
let with_children parent n ~field run =
  match parent with
  | None -> run (fun _ -> None)
  | Some p ->
    let children = Array.init n (fun _ -> Telemetry.create_like p) in
    let result = run (fun i -> Some children.(i)) in
    Array.iteri
      (fun i child ->
        Telemetry.merge_into ~into:p ~span_fields:[ (field, string_of_int (i + 1)) ] child)
      children;
    result

(* Context fan-out: each trial gets its own child context - a fresh
   engine minted from a per-trial seed and, when the parent carries a
   sink, its own child sink, tagged with its 1-based trial. *)
let map_ctx ?jobs ?seed_of ~ctx ~trials f =
  let seed_of =
    match seed_of with Some g -> g | None -> fun i -> Ctx.seed ctx + i
  in
  with_children (Ctx.telemetry ctx) trials ~field:"trial" (fun child ->
      map ?jobs trials (fun i ->
          f i (Ctx.with_telemetry (Ctx.with_seed ctx (seed_of i)) (child i))))

(* ---- lockstep sharded execution ---- *)

type ('w, 'msg) sharded = {
  world : 'w;
  deliver : now:Time.t -> src:int -> 'msg list -> unit;
  step : until:Time.t -> post:(dst:int -> 'msg -> unit) -> unit;
}

exception Member_failed of { seed : int; member : int; epoch : int; at : Time.t; exn : exn }

let () =
  Printexc.register_printer (function
    | Member_failed { seed; member; epoch; at; exn } ->
      Some
        (Printf.sprintf "Sim.Parallel.Member_failed: seed %d, member %d, epoch %d (barrier %s): %s"
           seed member epoch (Time.to_string at) (Printexc.to_string exn))
    | _ -> None)

(* One trial partitioned across domains instead of many trials fanned
   out: each *member* (not each shard) owns a full Ctx minted from
   (root seed, member index), so what every member simulates is a pure
   function of the root seed - the partition only decides which domain
   advances it. All cross-member traffic goes through the outboxes -
   even between members that happen to share a shard - and is delivered
   at barriers in one canonical order (ascending src, post order within
   a src), so the message schedule is partition-invariant too. Those two
   choices are the whole byte-identity argument; DESIGN.md §14 spells it
   out.

   Shard [s] advances the contiguous block [block s], so concatenating
   shards in shard order is member order for any shard count. Every
   array below has a single writer per slot at a time: during an epoch
   only the shard stepping member [m] touches [inbox.(m)] and
   [outbox.(m)]; between epochs only the coordinator does, after the
   join. *)
let run_sharded ?jobs ?(shards = 1) ~ctx ~members ~epoch ~until init =
  if members < 0 then invalid_arg "Parallel.run_sharded: negative member count";
  if Time.(epoch <= zero) then invalid_arg "Parallel.run_sharded: epoch must be positive";
  if Time.is_infinite epoch || Time.is_infinite until then
    invalid_arg "Parallel.run_sharded: epoch and until must be finite";
  if Time.(until < zero) then invalid_arg "Parallel.run_sharded: negative horizon";
  if members = 0 then [||]
  else
    let shards = max 1 (min shards members) in
    let block s = (s * members / shards, (s + 1) * members / shards) in
    let seed = Ctx.seed ctx and parent = Ctx.telemetry ctx in
    with_children parent members ~field:"member" (fun child ->
        let cells =
          map ?jobs shards (fun s ->
              let lo, hi = block s in
              List.init (hi - lo) (fun k ->
                  let member = lo + k in
                  init ~member (Ctx.with_telemetry (Ctx.fork_member ctx ~member) (child member))))
          |> List.concat |> Array.of_list
        in
        let c_epochs = Telemetry.counter parent ~component:"sim" "shard_epochs_total" in
        let c_msgs = Telemetry.counter parent ~component:"sim" "shard_messages_total" in
        Telemetry.set
          (Telemetry.gauge parent ~component:"sim" "shard_members")
          (float_of_int members);
        (* outbox.(m): m's mail this epoch as (dst, msg), newest first.
           inbox.(m): m's mail for the next epoch as (src, msgs) groups. *)
        let outbox = Array.make members [] and inbox = Array.make members [] in
        (* Walking src downwards and consing keeps each inbox in
           ascending src; walking an outbox newest first and consing
           keeps each group in post order. *)
        let exchange () =
          for src = members - 1 downto 0 do
            Telemetry.add c_msgs (List.length outbox.(src));
            List.iter
              (fun (dst, msg) ->
                if dst < 0 || dst >= members then
                  invalid_arg
                    (Printf.sprintf "Parallel.run_sharded: member %d posted to %d, outside [0, %d)"
                       src dst members);
                inbox.(dst) <-
                  (match inbox.(dst) with
                  | (s, msgs) :: groups when s = src -> (s, msg :: msgs) :: groups
                  | groups -> (src, [ msg ]) :: groups))
              outbox.(src);
            outbox.(src) <- []
          done
        in
        (* Epoch k hands over the mail of barrier k-1 at [start], then
           steps every member to barrier k, at min ((k+1) * epoch, until).
           Once [start] reaches [until] one last round only delivers, so
           mail posted in the final epoch still lands at the horizon (the
           churn conservation property depends on this). *)
        let rec advance k start =
          let flush = Time.(start >= until) in
          let at = Time.min until (Int64.mul epoch (Int64.of_int (k + 1))) in
          ignore
            (map ?jobs shards (fun s ->
                 let lo, hi = block s in
                 for m = lo to hi - 1 do
                   let cell = cells.(m) and groups = inbox.(m) in
                   inbox.(m) <- [];
                   try
                     List.iter (fun (src, msgs) -> cell.deliver ~now:start ~src msgs) groups;
                     if not flush then
                       cell.step ~until:at ~post:(fun ~dst msg ->
                           outbox.(m) <- (dst, msg) :: outbox.(m))
                   with exn ->
                     let bt = Printexc.get_raw_backtrace () in
                     Printexc.raise_with_backtrace
                       (Member_failed { seed; member = m; epoch = k; at; exn })
                       bt
                 done));
          if not flush then begin
            Telemetry.incr c_epochs;
            exchange ();
            advance (k + 1) at
          end
        in
        advance 0 Time.zero;
        Array.map (fun c -> c.world) cells)
