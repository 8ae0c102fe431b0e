type sample = {
  page_index : int;
  kind : Address_space.write_kind;
  cost : Sim.Time.t;
}

type result = {
  samples : sample list;
  total : Sim.Time.t;
  cow_breaks : int;
}

let probe ?(params = Mem_params.default) ~rng space ~offset ~pages =
  let rec loop i acc total breaks =
    if i >= pages then (List.rev acc, total, breaks)
    else begin
      let idx = offset + i in
      (* Rewriting with a mutated content models "write one byte into the
         page": the content changes, and the cost depends on sharing. *)
      let kind = Address_space.mutate space idx ~salt:i in
      let cost = Mem_params.write_cost params rng kind in
      let breaks =
        match kind with Address_space.Cow_break -> breaks + 1 | Address_space.Private_write -> breaks
      in
      loop (i + 1) ({ page_index = idx; kind; cost } :: acc) (Sim.Time.add total cost) breaks
    end
  in
  let samples, total, cow_breaks = loop 0 [] Sim.Time.zero 0 in
  { samples; total; cow_breaks }

let mean_cost r =
  match List.length r.samples with
  | 0 -> Sim.Time.zero
  | n -> Sim.Time.mul r.total (1. /. float_of_int n)

let costs_ns r =
  Array.of_list (List.map (fun s -> Int64.to_float (Sim.Time.to_ns s.cost)) r.samples)

let fraction_cow r =
  match List.length r.samples with
  | 0 -> 0.
  | n -> float_of_int r.cow_breaks /. float_of_int n
