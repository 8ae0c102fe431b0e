type verdict =
  | Nested_vm_detected
  | No_nested_vm
  | Inconclusive of string

let verdict_to_string = function
  | Nested_vm_detected -> "nested VM detected (CloudSkulk present)"
  | No_nested_vm -> "no nested VM"
  | Inconclusive reason -> "inconclusive: " ^ reason

let verdict_equal a b =
  match (a, b) with
  | Nested_vm_detected, Nested_vm_detected | No_nested_vm, No_nested_vm -> true
  | Inconclusive x, Inconclusive y -> String.equal x y
  | (Nested_vm_detected | No_nested_vm | Inconclusive _), _ -> false

(* The paper's settings: after each load the detector waits
   [wait_factor] full ksmd passes, and a mean write [merge_ratio] times
   t0's counts as merged. *)
let wait_factor = 2.5
let merge_ratio = 3.0
let mutate_salt = 0x5A17

type environment = {
  ctx : Sim.Ctx.t;
  host : Vmm.Hypervisor.t;
  deliver_to_guest : Memory.File_image.t -> (unit, string) result;
  mutate_in_guest : name:string -> salt:int -> (unit, string) result;
}

type measurement = {
  label : string;
  per_page_ns : float array;
  summary : Sim.Stats.summary;
  cow_fraction : float;
}

type outcome = {
  t0 : measurement;
  t1 : measurement;
  t2 : measurement;
  verdict : verdict;
  wait_per_step : Sim.Time.t;
  elapsed : Sim.Time.t;
}

let ( let* ) r f = Result.bind r f

(* The decision rule is a pure function of the three mean write times
   and the merge-ratio threshold, so alternative thresholds can be
   evaluated post hoc from a recorded outcome (the ROC sweep in the
   [slo] experiment) without re-running the protocol. *)
let decide ~merge_ratio ~t0_mean ~t1_mean ~t2_mean =
  let merged m = m >= merge_ratio *. t0_mean in
  if not (merged t1_mean) then
    Inconclusive
      "t1 is as fast as the baseline: File-A never merged (ksmd too slow, or the file \
       never reached the guest)"
  else if merged t2_mean then Nested_vm_detected
  else No_nested_vm

let verdict_for_ratio o ~ratio =
  decide ~merge_ratio:ratio ~t0_mean:o.t0.summary.Sim.Stats.mean
    ~t1_mean:o.t1.summary.Sim.Stats.mean ~t2_mean:o.t2.summary.Sim.Stats.mean

let ksm_exn env =
  match Vmm.Hypervisor.ksm env.host with
  | Some k -> k
  | None -> invalid_arg "Dedup_detector: host has no ksmd"

let wait_time env =
  (* After the buffer is registered: how long one full ksmd pass takes
     over everything registered, padded by [wait_factor]. *)
  Sim.Time.mul (Memory.Ksm.time_for_full_pass (ksm_exn env)) wait_factor

(* Load [image] into a fresh host buffer, wait for ksmd, and time a
   write to each page. The buffer is released afterwards: the real
   detector's process exits and frees its memory. *)
let load_wait_probe env ~label image =
  let telemetry = Vmm.Hypervisor.telemetry env.host in
  let probe_started = Sim.Ctx.now env.ctx in
  let* buffer =
    Vmm.Hypervisor.host_buffer env.host ~name:(Printf.sprintf "detector-%s" label)
      ~pages:(Memory.File_image.pages image)
  in
  Memory.File_image.load_into image buffer ~offset:0;
  let wait = wait_time env in
  ignore (Sim.Engine.run_for (Sim.Ctx.engine env.ctx) wait);
  let rng = Sim.Ctx.fork_rng env.ctx in
  let probe =
    Memory.Write_probe.probe ~rng buffer ~offset:0 ~pages:(Memory.File_image.pages image)
  in
  ignore (Sim.Engine.run_for (Sim.Ctx.engine env.ctx) probe.Memory.Write_probe.total);
  Vmm.Hypervisor.release_buffer env.host buffer;
  let per_page_ns = Memory.Write_probe.costs_ns probe in
  let stats = Sim.Stats.of_list (Array.to_list per_page_ns) in
  let summary = Sim.Stats.summary stats in
  let cow_fraction = Memory.Write_probe.fraction_cow probe in
  if Sim.Telemetry.enabled telemetry then begin
    let step_label = [ ("step", label) ] in
    Sim.Telemetry.incr
      (Sim.Telemetry.counter telemetry ~labels:step_label ~component:"cloudskulk"
         "probes_total");
    let h =
      Sim.Telemetry.histogram telemetry ~labels:step_label ~component:"cloudskulk"
        ~buckets:[ 100.; 300.; 1000.; 3000.; 10000.; 30000.; 100000. ]
        "probe_write_ns"
    in
    Array.iter (fun ns -> Sim.Telemetry.observe h ns) per_page_ns;
    Sim.Telemetry.span telemetry ~component:"cloudskulk" ~name:"probe" ~start:probe_started
      ~stop:(Sim.Ctx.now env.ctx)
      ~fields:
        [
          ("step", label);
          ("pages", string_of_int (Memory.File_image.pages image));
          ("mean_ns", Printf.sprintf "%.0f" summary.Sim.Stats.mean);
          ("cow_fraction", Printf.sprintf "%.4f" cow_fraction);
        ]
      ()
  end;
  Ok { label; per_page_ns; summary; cow_fraction }

(* Each protocol run works with a fresh file: real deployments generate
   a new random File-A per check (Section VI-D-1), and reusing a name
   would collide with a previous run's copy still sitting in the
   guest. Atomic, because trials may run concurrently across domains
   and a duplicated "fresh" name would silently change behaviour. *)
let run_counter = Atomic.make 0

let fresh_name prefix = Printf.sprintf "%s-%d" prefix (Atomic.fetch_and_add run_counter 1 + 1)

let t0_probe ~file_pages env =
  let rng = Sim.Ctx.fork_rng env.ctx in
  let lonely = Memory.File_image.generate rng ~name:(fresh_name "file-t0") ~pages:file_pages in
  load_wait_probe env ~label:"t0" lonely

(* File-A is 100 pages in the paper. *)
let paper_file_pages = 100
let measure_t0 env = t0_probe ~file_pages:paper_file_pages env

let run ?(file_pages = paper_file_pages) env =
  let started = Sim.Ctx.now env.ctx in
  let rng = Sim.Ctx.fork_rng env.ctx in
  let file_a = Memory.File_image.generate rng ~name:(fresh_name "file-a") ~pages:file_pages in
  if not (Memory.File_image.all_pages_distinct file_a) then
    Error "File-A generation produced duplicate pages"
  else begin
    (* Baseline: a file no one else holds. *)
    let* t0 = t0_probe ~file_pages env in
    (* Step 1: push File-A to the guest, then measure. *)
    let* () = env.deliver_to_guest file_a in
    let* t1 = load_wait_probe env ~label:"t1" file_a in
    (* Step 2: the guest changes every page; measure a fresh original. *)
    let* () = env.mutate_in_guest ~name:(Memory.File_image.name file_a) ~salt:mutate_salt in
    let* t2 = load_wait_probe env ~label:"t2" file_a in
    let verdict =
      decide ~merge_ratio ~t0_mean:t0.summary.Sim.Stats.mean
        ~t1_mean:t1.summary.Sim.Stats.mean ~t2_mean:t2.summary.Sim.Stats.mean
    in
    let telemetry = Vmm.Hypervisor.telemetry env.host in
    let verdict_label =
      match verdict with
      | Nested_vm_detected -> "nested_vm_detected"
      | No_nested_vm -> "no_nested_vm"
      | Inconclusive _ -> "inconclusive"
    in
    Sim.Telemetry.incr
      (Sim.Telemetry.counter telemetry
         ~labels:[ ("verdict", verdict_label) ]
         ~component:"cloudskulk" "verdicts_total");
    if Sim.Telemetry.enabled telemetry then
      Sim.Telemetry.span telemetry ~component:"cloudskulk" ~name:"detect" ~start:started
        ~stop:(Sim.Ctx.now env.ctx)
        ~fields:[ ("verdict", verdict_label) ]
        ();
    Ok
      {
        t0;
        t1;
        t2;
        verdict;
        wait_per_step = wait_time env;
        elapsed = Sim.Time.diff (Sim.Ctx.now env.ctx) started;
      }
  end
