(* Benchmark-owned wall-clock spans around calls into the simulator's
   layers. Spans stay in memory and are written once, when the run
   ends.

   A span is either one call or an aggregate of many short calls made
   under one parent: Host.step runs 125 x 180 times per fleet world, so
   it is recorded as one span per world. An aggregate runs from its
   first call's start to its last call's end, and its [busy] time is the
   sum of its calls, not that extent. A span's self time is its busy
   time minus the busy time of its children. *)

let clock = Unix.gettimeofday

type span = {
  id : int;
  name : string;  (** "<layer>.<call>", e.g. "cloudskulk.protocol" *)
  parent : int;  (** 0 for a unit's root span *)
  unit_id : int;  (** the seed of the unit the span belongs to *)
  start : float;
  stop : float;
  busy : float;
  calls : int;
}

type t = {
  mutable recorded : span list;  (** newest first *)
  mutable next : int;
  mutable current : int;  (** the innermost open span *)
  mutable unit_seed : int;
}

let create () = { recorded = []; next = 1; current = 0; unit_seed = 0 }

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

let record t ~id ~parent ~name ~start ~stop ~busy ~calls =
  t.recorded <- { id; name; parent; unit_id = t.unit_seed; start; stop; busy; calls } :: t.recorded

(* [call tr name f] is [f ()] inside a span; without a tracer it is
   exactly [f ()]. *)
let call tr name f =
  match tr with
  | None -> f ()
  | Some t ->
    let id = fresh t and parent = t.current in
    t.current <- id;
    let start = clock () in
    let finish () =
      let stop = clock () in
      t.current <- parent;
      record t ~id ~parent ~name ~start ~stop ~busy:(stop -. start) ~calls:1
    in
    (match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e)

type agg = {
  tr : t;
  a_id : int;
  a_parent : int;
  a_name : string;
  mutable first : float;
  mutable last : float;
  mutable a_busy : float;
  mutable a_calls : int;
}

(* An aggregate span under the current parent; record it with [close]. *)
let agg tr name =
  Option.map
    (fun t ->
      {
        tr = t;
        a_id = fresh t;
        a_parent = t.current;
        a_name = name;
        first = 0.;
        last = 0.;
        a_busy = 0.;
        a_calls = 0;
      })
    tr

let timed a f =
  match a with
  | None -> f ()
  | Some a ->
    let start = clock () in
    let v = f () in
    let stop = clock () in
    if a.a_calls = 0 then a.first <- start;
    a.last <- stop;
    a.a_busy <- a.a_busy +. (stop -. start);
    a.a_calls <- a.a_calls + 1;
    v

let close = function
  | Some a when a.a_calls > 0 ->
    record a.tr ~id:a.a_id ~parent:a.a_parent ~name:a.a_name ~start:a.first ~stop:a.last
      ~busy:a.a_busy ~calls:a.a_calls
  | _ -> ()

let spans t = List.sort (fun (a : span) b -> Int.compare a.id b.id) t.recorded

let layer (s : span) = match String.index_opt s.name '.' with Some i -> String.sub s.name 0 i | None -> s.name

(* Busy time of each span's direct children, keyed by parent id. *)
let child_busy spans =
  let h = Hashtbl.create 64 in
  List.iter
    (fun (s : span) ->
      let prev = Option.value (Hashtbl.find_opt h s.parent) ~default:0. in
      Hashtbl.replace h s.parent (prev +. s.busy))
    spans;
  fun id -> Option.value (Hashtbl.find_opt h id) ~default:0.

let self_time spans =
  let covered = child_busy spans in
  fun (s : span) -> s.busy -. covered s.id

let write_jsonl path ~origin spans =
  let oc = open_out path in
  List.iter
    (fun (s : span) ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"unit\":%d,\"start_s\":%.6f,\"end_s\":%.6f,\"busy_s\":%.6f,\"calls\":%d}\n"
        s.id s.name s.parent s.unit_id (s.start -. origin) (s.stop -. origin) s.busy s.calls)
    spans;
  close_out oc
