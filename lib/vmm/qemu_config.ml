type disk = {
  image : string;
  size_gb : float;
  format : string;
}

type netdev = {
  model : string;
  mac : string;
  hostfwd : (int * int) list;
}

type t = {
  vm_name : string;
  memory_mb : int;
  vcpus : int;
  machine : string;
  cpu_model : string;
  accel_kvm : bool;
  nested_vmx : bool;
  disk : disk;
  netdev : netdev;
  monitor_port : int;
  vnc_display : int;
  incoming : int option;
}

let default ~name =
  {
    vm_name = name;
    memory_mb = 1024;
    vcpus = 1;
    machine = "pc-i440fx-2.9";
    cpu_model = "host";
    accel_kvm = true;
    nested_vmx = false;
    disk = { image = name ^ ".qcow2"; size_gb = 20.; format = "qcow2" };
    netdev = { model = "virtio-net-pci"; mac = "52:54:00:12:34:56"; hostfwd = [] };
    monitor_port = 5555;
    vnc_display = 0;
    incoming = None;
  }

let with_incoming t ~port = { t with incoming = Some port }
let with_hostfwd t rules = { t with netdev = { t.netdev with hostfwd = rules } }
let with_nested_vmx t b = { t with nested_vmx = b }
let with_name t name = { t with vm_name = name }
let memory_pages t = t.memory_mb * 1024 * 1024 / Memory.Page.size_bytes

let hostfwd_to_string rules =
  List.map (fun (h, g) -> Printf.sprintf ",hostfwd=tcp::%d-:%d" h g) rules |> String.concat ""

let to_cmdline t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "qemu-system-x86_64";
  Buffer.add_string buf (Printf.sprintf " -name %s" t.vm_name);
  Buffer.add_string buf (Printf.sprintf " -machine %s" t.machine);
  if t.accel_kvm then Buffer.add_string buf " -enable-kvm";
  Buffer.add_string buf
    (Printf.sprintf " -cpu %s%s" t.cpu_model (if t.nested_vmx then ",+vmx" else ""));
  Buffer.add_string buf (Printf.sprintf " -smp %d" t.vcpus);
  Buffer.add_string buf (Printf.sprintf " -m %d" t.memory_mb);
  Buffer.add_string buf
    (Printf.sprintf " -drive file=%s,format=%s,if=virtio,size=%gG" t.disk.image t.disk.format
       t.disk.size_gb);
  Buffer.add_string buf
    (Printf.sprintf " -netdev user,id=net0%s -device %s,netdev=net0,mac=%s"
       (hostfwd_to_string t.netdev.hostfwd)
       t.netdev.model t.netdev.mac);
  Buffer.add_string buf (Printf.sprintf " -monitor telnet:127.0.0.1:%d,server,nowait" t.monitor_port);
  Buffer.add_string buf (Printf.sprintf " -vnc :%d" t.vnc_display);
  (match t.incoming with
  | Some port -> Buffer.add_string buf (Printf.sprintf " -incoming tcp:0.0.0.0:%d" port)
  | None -> ());
  Buffer.contents buf

(* Parsing accepts exactly the grammar [to_cmdline] emits; the attacker
   reads back what the host launched. *)
let of_cmdline line =
  let words = String.split_on_char ' ' line |> List.filter (fun w -> w <> "") in
  match words with
  | "qemu-system-x86_64" :: rest ->
    let cfg = ref (default ~name:"parsed") in
    let err = ref None in
    let fail msg = if !err = None then err := Some msg in
    let parse_int what s =
      match int_of_string_opt s with
      | Some n -> n
      | None ->
        fail (Printf.sprintf "bad %s: %s" what s);
        0
    in
    let rec go = function
      | [] -> ()
      | "-name" :: v :: rest ->
        cfg := { !cfg with vm_name = v };
        go rest
      | "-machine" :: v :: rest ->
        cfg := { !cfg with machine = v };
        go rest
      | "-enable-kvm" :: rest ->
        cfg := { !cfg with accel_kvm = true };
        go rest
      | "-cpu" :: v :: rest ->
        let nested = Filename.check_suffix v ",+vmx" in
        let model = if nested then String.sub v 0 (String.length v - 5) else v in
        cfg := { !cfg with cpu_model = model; nested_vmx = nested };
        go rest
      | "-smp" :: v :: rest ->
        cfg := { !cfg with vcpus = parse_int "-smp" v };
        go rest
      | "-m" :: v :: rest ->
        cfg := { !cfg with memory_mb = parse_int "-m" v };
        go rest
      | "-drive" :: v :: rest ->
        let fields = String.split_on_char ',' v in
        let get key default_ =
          List.find_map
            (fun f ->
              match String.index_opt f '=' with
              | Some i when String.sub f 0 i = key ->
                Some (String.sub f (i + 1) (String.length f - i - 1))
              | Some _ | None -> None)
            fields
          |> Option.value ~default:default_
        in
        let size_str = get "size" "20G" in
        let size_gb =
          match float_of_string_opt (String.sub size_str 0 (String.length size_str - 1)) with
          | Some g -> g
          | None ->
            fail ("bad drive size: " ^ size_str);
            0.
        in
        cfg :=
          { !cfg with disk = { image = get "file" ""; format = get "format" "qcow2"; size_gb } };
        go rest
      | "-netdev" :: v :: rest ->
        let fields = String.split_on_char ',' v in
        let hostfwd =
          List.filter_map
            (fun f ->
              match String.index_opt f '=' with
              | Some i when String.sub f 0 i = "hostfwd" -> (
                (* tcp::H-:G *)
                let spec = String.sub f (i + 1) (String.length f - i - 1) in
                match String.split_on_char ':' spec with
                | [ "tcp"; ""; h; g ] -> (
                  (* "tcp::H-:G" splits to tcp / "" / "H-" / G *)
                  match int_of_string_opt (String.sub h 0 (String.length h - 1)) with
                  | Some hp -> (
                    match int_of_string_opt g with
                    | Some gp -> Some (hp, gp)
                    | None ->
                      fail ("bad hostfwd guest port: " ^ g);
                      None)
                  | None ->
                    fail ("bad hostfwd host port: " ^ h);
                    None)
                | _ ->
                  fail ("bad hostfwd: " ^ spec);
                  None)
              | Some _ | None -> None)
            fields
        in
        cfg := { !cfg with netdev = { !cfg.netdev with hostfwd } };
        go rest
      | "-device" :: v :: rest ->
        let fields = String.split_on_char ',' v in
        let model = match fields with m :: _ -> m | [] -> "virtio-net-pci" in
        let mac =
          List.find_map
            (fun f ->
              match String.index_opt f '=' with
              | Some i when String.sub f 0 i = "mac" ->
                Some (String.sub f (i + 1) (String.length f - i - 1))
              | Some _ | None -> None)
            fields
          |> Option.value ~default:"52:54:00:12:34:56"
        in
        cfg := { !cfg with netdev = { !cfg.netdev with model; mac } };
        go rest
      | "-monitor" :: v :: rest ->
        (match String.split_on_char ':' v with
        | "telnet" :: _ :: port_etc :: _ -> (
          match String.split_on_char ',' port_etc with
          | port :: _ -> cfg := { !cfg with monitor_port = parse_int "monitor port" port }
          | [] -> fail ("bad -monitor: " ^ v))
        | _ -> fail ("bad -monitor: " ^ v));
        go rest
      | "-vnc" :: v :: rest ->
        let display =
          if String.length v > 1 && v.[0] = ':' then
            parse_int "-vnc" (String.sub v 1 (String.length v - 1))
          else begin
            fail ("bad -vnc: " ^ v);
            0
          end
        in
        cfg := { !cfg with vnc_display = display };
        go rest
      | "-incoming" :: v :: rest ->
        (match String.split_on_char ':' v with
        | [ "tcp"; _; port ] -> cfg := { !cfg with incoming = Some (parse_int "-incoming" port) }
        | _ -> fail ("bad -incoming: " ^ v));
        go rest
      | flag :: rest ->
        fail ("unknown flag: " ^ flag);
        go rest
    in
    go rest;
    (match !err with Some e -> Error e | None -> Ok !cfg)
  | _ -> Error "not a qemu-system-x86_64 command line"

let migration_compatible ~source ~dest =
  let check cond msg acc = if cond then acc else msg :: acc in
  let problems =
    []
    |> check (source.machine = dest.machine) "machine type differs"
    |> check (source.memory_mb = dest.memory_mb) "memory size differs"
    |> check (source.vcpus = dest.vcpus) "vCPU count differs"
    |> check (source.disk.size_gb = dest.disk.size_gb) "disk size differs"
    |> check (source.disk.format = dest.disk.format) "disk format differs"
    |> check (source.netdev.model = dest.netdev.model) "NIC model differs"
  in
  match problems with [] -> Ok () | ps -> Error (String.concat "; " (List.rev ps))

let pp fmt t =
  Format.fprintf fmt "%s: %dMB, %d vCPU, %s disk %.0fG, nic %s%s" t.vm_name t.memory_mb t.vcpus
    t.disk.format t.disk.size_gb t.netdev.model
    (match t.incoming with Some p -> Format.sprintf " (incoming:%d)" p | None -> "")
