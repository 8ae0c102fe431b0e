(* Labelled metrics registry plus span-based timing.

   Everything here is deterministic by construction: values are driven
   by simulation events, spans carry virtual {!Time.t} instants, and the
   exporters order their output by sorted series name - never by hash
   order or wall clock. A sink rides in the [Ctx.t] threaded through the
   substrate, which hands it out as a [t option]; handles created against
   [None] are physically [None] and every bump on them is a single
   match, so a run without telemetry does no extra work and allocates
   nothing on the hot path. *)

type labels = (string * string) list

type cell = { mutable v : float }

type hist = {
  bounds : float array;  (* strictly ascending, finite; +Inf is implicit *)
  counts : int array;    (* length [Array.length bounds + 1]; last = overflow *)
  mutable sum : float;
  mutable total : int;
}

(* A summary is a mergeable digest of every recorded value. *)
type kind = Counter of cell | Gauge of cell | Histogram of hist | Summary of Stats.Sketch.t

type entry = {
  base : string;
  labels : labels;
  kind : kind;
}

type span_record = {
  component : string;
  name : string;
  start : Time.t;
  stop : Time.t;
  fields : labels;
}

type t = {
  series : (string, entry) Hashtbl.t;
  spans : span_record Queue.t;
  span_capacity : int;
  mutable spans_dropped : int;
}

type counter = cell option
type gauge = cell option
type histogram = hist option
type summary = Stats.Sketch.t option

let create ?(span_capacity = 65536) () =
  {
    series = Hashtbl.create 256;
    spans = Queue.create ();
    span_capacity;
    spans_dropped = 0;
  }

let create_like t = create ~span_capacity:t.span_capacity ()
let enabled = function None -> false | Some _ -> true

(* Metric and label names are normalised to the Prometheus identifier
   alphabet so a stray '/' or '-' in a component name cannot produce an
   unparseable exposition. *)
let sanitize s =
  if String.equal s "" then "_"
  else
    String.mapi
      (fun i c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '_' -> c
        | '0' .. '9' when i > 0 -> c
        | _ -> '_')
      s

let escape_label_value v =
  let buf = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render_series base labels =
  match labels with
  | [] -> base
  | _ ->
    let buf = Buffer.create 64 in
    Buffer.add_string buf base;
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf k;
        Buffer.add_string buf "=\"";
        Buffer.add_string buf (escape_label_value v);
        Buffer.add_char buf '"')
      labels;
    Buffer.add_char buf '}';
    Buffer.contents buf

let normalise_labels labels =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (List.map (fun (k, v) -> (sanitize k, v)) labels)

let register t ?(labels = []) ~component name mk =
  let base = sanitize component ^ "_" ^ sanitize name in
  let labels = normalise_labels labels in
  let key = render_series base labels in
  match Hashtbl.find_opt t.series key with
  | Some e -> e.kind
  | None ->
    let kind = mk () in
    Hashtbl.replace t.series key { base; labels; kind };
    kind

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"
  | Summary _ -> "summary"

let mismatch ~component name kind =
  invalid_arg
    (Printf.sprintf "Telemetry: series %s_%s already registered as a %s" component name
       (kind_name kind))

let counter sink ?labels ~component name =
  match sink with
  | None -> None
  | Some t -> (
    match register t ?labels ~component name (fun () -> Counter { v = 0. }) with
    | Counter c -> Some c
    | k -> mismatch ~component name k)

let gauge sink ?labels ~component name =
  match sink with
  | None -> None
  | Some t -> (
    match register t ?labels ~component name (fun () -> Gauge { v = 0. }) with
    | Gauge c -> Some c
    | k -> mismatch ~component name k)

let default_buckets = [ 0.001; 0.01; 0.1; 1.; 10.; 100.; 1000. ]

let histogram sink ?labels ?(buckets = default_buckets) ~component name =
  match sink with
  | None -> None
  | Some t ->
    let mk () =
      let bounds = Array.of_list buckets in
      let n = Array.length bounds in
      if n = 0 then invalid_arg "Telemetry.histogram: empty bucket list";
      for i = 1 to n - 1 do
        if bounds.(i) <= bounds.(i - 1) then
          invalid_arg "Telemetry.histogram: bucket bounds must be strictly ascending"
      done;
      Histogram { bounds; counts = Array.make (n + 1) 0; sum = 0.; total = 0 }
    in
    (match register t ?labels ~component name mk with
    | Histogram h -> Some h
    | k -> mismatch ~component name k)

(* The export points of every summary series. *)
let quantiles = [ 0.5; 0.9; 0.99 ]

let summary sink ~component name =
  match sink with
  | None -> None
  | Some t ->
    (match register t ~component name (fun () -> Summary (Stats.Sketch.create ())) with
    | Summary s -> Some s
    | k -> mismatch ~component name k)

let incr = function None -> () | Some c -> c.v <- c.v +. 1.

let add c n =
  match c with
  | None -> ()
  | Some c ->
    if n < 0 then invalid_arg "Telemetry.add: counters are monotonic";
    c.v <- c.v +. float_of_int n

let addf c x =
  match c with
  | None -> ()
  | Some c ->
    if x < 0. then invalid_arg "Telemetry.addf: counters are monotonic";
    c.v <- c.v +. x

let set g x = match g with None -> () | Some g -> g.v <- x
let record s x = match s with None -> () | Some s -> Stats.Sketch.add s x

let observe h x =
  match h with
  | None -> ()
  | Some h ->
    let n = Array.length h.bounds in
    let rec idx i = if i >= n || x <= h.bounds.(i) then i else idx (i + 1) in
    let i = idx 0 in
    h.counts.(i) <- h.counts.(i) + 1;
    h.sum <- h.sum +. x;
    h.total <- h.total + 1

let push_span t s =
  Queue.push s t.spans;
  if Queue.length t.spans > t.span_capacity then begin
    ignore (Queue.pop t.spans);
    t.spans_dropped <- t.spans_dropped + 1
  end

let span sink ~component ~name ~start ~stop ?(fields = []) () =
  match sink with
  | None -> ()
  | Some t -> push_span t { component; name; start; stop; fields }

let series_count t = Hashtbl.length t.series
let spans_recorded t = Queue.length t.spans
let spans_dropped t = t.spans_dropped

let value t key =
  match Hashtbl.find_opt t.series key with
  | Some { kind = Counter c; _ } | Some { kind = Gauge c; _ } -> Some c.v
  | Some _ | None -> None

let histogram_count t key =
  match Hashtbl.find_opt t.series key with
  | Some { kind = Histogram h; _ } -> Some h.total
  | Some _ | None -> None

let summary_count t key =
  match Hashtbl.find_opt t.series key with
  | Some { kind = Summary s; _ } -> Some (Stats.Sketch.count s)
  | Some _ | None -> None

let summary_quantile t key q =
  match Hashtbl.find_opt t.series key with
  | Some { kind = Summary s; _ } -> Some (Stats.Sketch.quantile s q)
  | Some _ | None -> None

let fold_series t ~init ~f =
  let entries =
    Hashtbl.fold (fun key e acc -> (key, e) :: acc) t.series []
    |> List.sort (fun (ka, _) (kb, _) -> String.compare ka kb)
  in
  List.fold_left
    (fun acc (key, e) ->
      match e.kind with
      | Counter c | Gauge c -> f acc key c.v
      | Histogram h -> f acc key (float_of_int h.total)
      | Summary s -> f acc key (float_of_int (Stats.Sketch.count s)))
    init entries

let sorted_entries t =
  Hashtbl.fold (fun key e acc -> (key, e) :: acc) t.series []
  |> List.sort (fun (ka, a) (kb, b) ->
         match String.compare a.base b.base with 0 -> String.compare ka kb | c -> c)

let copy_kind = function
  | Counter c -> Counter { v = c.v }
  | Gauge c -> Gauge { v = c.v }
  | Histogram h ->
    Histogram
      { bounds = h.bounds; counts = Array.copy h.counts; sum = h.sum; total = h.total }
  | Summary s -> Summary (Stats.Sketch.copy s)

let merge_into ~into ?(span_fields = []) child =
  List.iter
    (fun (key, e) ->
      match Hashtbl.find_opt into.series key with
      | None -> Hashtbl.replace into.series key { e with kind = copy_kind e.kind }
      | Some dst -> (
        match (dst.kind, e.kind) with
        | Counter a, Counter b -> a.v <- a.v +. b.v
        | Gauge a, Gauge b -> a.v <- b.v
        | Histogram a, Histogram b ->
          if a.bounds <> b.bounds then
            invalid_arg
              (Printf.sprintf "Telemetry.merge_into: bucket bounds differ for %s" key);
          Array.iteri (fun i n -> a.counts.(i) <- a.counts.(i) + n) b.counts;
          a.sum <- a.sum +. b.sum;
          a.total <- a.total + b.total
        | Summary a, Summary b -> Stats.Sketch.merge_into ~into:a b
        | _ ->
          invalid_arg (Printf.sprintf "Telemetry.merge_into: kind mismatch for %s" key)))
    (sorted_entries child);
  Queue.iter
    (fun s -> push_span into { s with fields = s.fields @ span_fields })
    child.spans;
  into.spans_dropped <- into.spans_dropped + child.spans_dropped

(* Values are rendered as integers whenever exact (counters and bucket
   counts always are), so the text format is stable and diffable. *)
let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let pp_prometheus ppf t =
  let last_base = ref "" in
  List.iter
    (fun (key, e) ->
      if not (String.equal e.base !last_base) then begin
        last_base := e.base;
        Format.fprintf ppf "# TYPE %s %s@\n" e.base (kind_name e.kind)
      end;
      match e.kind with
      | Counter c | Gauge c -> Format.fprintf ppf "%s %s@\n" key (fmt_value c.v)
      | Histogram h ->
        let n = Array.length h.bounds in
        let cum = ref 0 in
        for i = 0 to n - 1 do
          cum := !cum + h.counts.(i);
          Format.fprintf ppf "%s %d@\n"
            (render_series (e.base ^ "_bucket")
               (e.labels @ [ ("le", fmt_value h.bounds.(i)) ]))
            !cum
        done;
        Format.fprintf ppf "%s %d@\n"
          (render_series (e.base ^ "_bucket") (e.labels @ [ ("le", "+Inf") ]))
          h.total;
        Format.fprintf ppf "%s %s@\n"
          (render_series (e.base ^ "_sum") e.labels)
          (fmt_value h.sum);
        Format.fprintf ppf "%s %d@\n" (render_series (e.base ^ "_count") e.labels) h.total
      | Summary s ->
        List.iter
          (fun q ->
            Format.fprintf ppf "%s %s@\n"
              (render_series e.base (e.labels @ [ ("quantile", fmt_value q) ]))
              (fmt_value (Stats.Sketch.quantile s q)))
          quantiles;
        Format.fprintf ppf "%s %s@\n"
          (render_series (e.base ^ "_sum") e.labels)
          (fmt_value (Stats.Sketch.sum s));
        Format.fprintf ppf "%s %d@\n"
          (render_series (e.base ^ "_count") e.labels)
          (Stats.Sketch.count s))
    (sorted_entries t)

let prometheus_string t = Format.asprintf "%a" pp_prometheus t

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let pp_jsonl ppf t =
  Queue.iter
    (fun s ->
      Format.fprintf ppf "{\"component\":\"%s\",\"name\":\"%s\",\"start_ns\":%Ld,\"end_ns\":%Ld"
        (json_escape s.component) (json_escape s.name) (Time.to_ns s.start)
        (Time.to_ns s.stop);
      if s.fields <> [] then begin
        Format.pp_print_string ppf ",\"fields\":{";
        List.iteri
          (fun i (k, v) ->
            Format.fprintf ppf "%s\"%s\":\"%s\""
              (if i > 0 then "," else "")
              (json_escape k) (json_escape v))
          s.fields;
        Format.pp_print_char ppf '}'
      end;
      Format.fprintf ppf "}@\n")
    t.spans;
  (* Summary series follow the spans, one object per series in sorted
     order; an empty summary has no meaningful quantiles (and [nan] is
     not valid JSON), so its [quantiles] object is left empty. *)
  List.iter
    (fun (key, e) ->
      match e.kind with
      | Counter _ | Gauge _ | Histogram _ -> ()
      | Summary s ->
        let n = Stats.Sketch.count s in
        Format.fprintf ppf "{\"summary\":\"%s\",\"count\":%d,\"sum\":%s,\"quantiles\":{"
          (json_escape key) n
          (fmt_value (Stats.Sketch.sum s));
        if n > 0 then
          List.iteri
            (fun i q ->
              Format.fprintf ppf "%s\"%s\":%s"
                (if i > 0 then "," else "")
                (fmt_value q)
                (fmt_value (Stats.Sketch.quantile s q)))
            quantiles;
        Format.fprintf ppf "}}@\n")
    (sorted_entries t)

let jsonl_string t = Format.asprintf "%a" pp_jsonl t
