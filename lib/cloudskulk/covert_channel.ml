(* A frame waits [wait_factor] full ksmd passes for the slots to merge;
   both parties derive the codebook from [codebook_seed]. *)
let pages_per_bit = 1
let wait_factor = 2.5
let codebook_seed = 0xC0DE

type transfer = {
  sent : bool list;
  received : bool list;
  bit_errors : int;
  elapsed : Sim.Time.t;
  bandwidth_bits_per_s : float;
}

(* Both parties derive slot contents deterministically from the shared
   seed; a fresh nonce per call keeps frames from colliding with a
   previous frame's residue (atomic: nonces must stay unique even when
   trials run concurrently across domains). *)
let frame_nonce = Atomic.make 0

let codebook ~nonce ~bits =
  let rng = Sim.Rng.create (codebook_seed lxor (nonce * 0x9E37)) in
  List.init bits (fun _ -> Array.init pages_per_bit (fun _ -> Memory.Page.Content.random rng))

let load_slot vm contents ~name =
  Vmm.Vm.load_file vm (Memory.File_image.of_contents ~name contents)

let transmit ~host ~sender ~receiver bits =
  match Vmm.Hypervisor.ksm host with
  | None -> Error "host has no ksmd: the channel needs memory deduplication"
  | Some ksm ->
    let nonce = Atomic.fetch_and_add frame_nonce 1 + 1 in
    let engine = Vmm.Vm.engine sender in
    let started = Sim.Engine.now engine in
    let book = codebook ~nonce ~bits:(List.length bits) in
    let slot_name side i = Printf.sprintf "covert-%d-%s-%d" nonce side i in
    (* receiver always holds every slot page *)
    let rec load_receiver i = function
      | [] -> Ok ()
      | contents :: rest -> (
        match load_slot receiver contents ~name:(slot_name "rx" i) with
        | Ok _ -> load_receiver (i + 1) rest
        | Error e -> Error ("receiver: " ^ e))
    in
    (* sender holds only the 1-slots *)
    let rec load_sender i = function
      | [] -> Ok ()
      | (bit, contents) :: rest ->
        if not bit then load_sender (i + 1) rest
        else begin
          match load_slot sender contents ~name:(slot_name "tx" i) with
          | Ok _ -> load_sender (i + 1) rest
          | Error e -> Error ("sender: " ^ e)
        end
    in
    (match load_receiver 0 book with
    | Error e -> Error e
    | Ok () -> (
      match load_sender 0 (List.combine bits book) with
      | Error e -> Error e
      | Ok () ->
        (* wait for ksmd to merge matching slots *)
        let wait = Sim.Time.mul (Memory.Ksm.time_for_full_pass ksm) wait_factor in
        ignore (Sim.Engine.run_for engine wait);
        (* receiver probes its own copies: CoW = the sender had it *)
        let rng = Sim.Engine.fork_rng engine in
        let received =
          List.mapi
            (fun i _ ->
              match Vmm.Vm.file_offset receiver (slot_name "rx" i) with
              | None -> false
              | Some offset ->
                let probe =
                  Memory.Write_probe.probe ~rng (Vmm.Vm.ram receiver) ~offset
                    ~pages:pages_per_bit
                in
                ignore (Sim.Engine.run_for engine probe.Memory.Write_probe.total);
                Memory.Write_probe.fraction_cow probe > 0.5)
            book
        in
        (* clean both sides' bookkeeping so slots can be reused *)
        List.iteri
          (fun i _ ->
            Vmm.Vm.unload_file receiver (slot_name "rx" i);
            Vmm.Vm.unload_file sender (slot_name "tx" i))
          book;
        let bit_errors =
          List.fold_left2 (fun acc a b -> if a = b then acc else acc + 1) 0 bits received
        in
        let elapsed = Sim.Time.diff (Sim.Engine.now engine) started in
        let secs = Sim.Time.to_s elapsed in
        Ok
          {
            sent = bits;
            received;
            bit_errors;
            elapsed;
            bandwidth_bits_per_s =
              (if secs > 0. then float_of_int (List.length bits) /. secs else 0.);
          }))

let string_to_bits s =
  List.concat_map
    (fun c ->
      let code = Char.code c in
      List.init 8 (fun i -> code land (1 lsl (7 - i)) <> 0))
    (List.init (String.length s) (String.get s))

let bits_to_string bits =
  let arr = Array.of_list bits in
  let n_bytes = Array.length arr / 8 in
  String.init n_bytes (fun b ->
      let code = ref 0 in
      for i = 0 to 7 do
        if arr.((b * 8) + i) then code := !code lor (1 lsl (7 - i))
      done;
      Char.chr !code)
