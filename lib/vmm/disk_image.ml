type format = Qcow2 | Raw

let format_to_string = function Qcow2 -> "qcow2" | Raw -> "raw"

let format_of_string = function
  | "qcow2" -> Ok Qcow2
  | "raw" -> Ok Raw
  | s -> Error ("unknown image format: " ^ s)

let cluster_bytes = 64 * 1024

type t = {
  name : string;
  format : format;
  virtual_size_bytes : int;
  mutable allocated_clusters : int;
}

let metadata_clusters = 4

let create ~name ~format ~virtual_size_gb =
  if virtual_size_gb <= 0. then invalid_arg "Disk_image.create: size must be positive";
  let virtual_size_bytes = int_of_float (virtual_size_gb *. 1024. *. 1024. *. 1024.) in
  let allocated_clusters =
    match format with
    | Raw -> (virtual_size_bytes + cluster_bytes - 1) / cluster_bytes
    | Qcow2 -> metadata_clusters
  in
  { name; format; virtual_size_bytes; allocated_clusters }

let virtual_size_bytes t = t.virtual_size_bytes

let max_clusters t = (t.virtual_size_bytes + cluster_bytes - 1) / cluster_bytes
let allocated_bytes t = t.allocated_clusters * cluster_bytes

let guest_write t ~bytes =
  if bytes < 0 then invalid_arg "Disk_image.guest_write: negative size";
  let clusters = (bytes + cluster_bytes - 1) / cluster_bytes in
  t.allocated_clusters <- min (max_clusters t) (t.allocated_clusters + clusters)

let human_size bytes =
  let f = float_of_int bytes in
  if f >= 1024. ** 3. then Printf.sprintf "%.1fG" (f /. (1024. ** 3.))
  else if f >= 1024. ** 2. then Printf.sprintf "%.1fM" (f /. (1024. ** 2.))
  else Printf.sprintf "%.1fK" (f /. 1024.)

let qemu_img_info t =
  String.concat "\n"
    [
      Printf.sprintf "image: %s" t.name;
      Printf.sprintf "file format: %s" (format_to_string t.format);
      Printf.sprintf "virtual size: %s (%d bytes)" (human_size t.virtual_size_bytes)
        t.virtual_size_bytes;
      Printf.sprintf "disk size: %s" (human_size (allocated_bytes t));
      (match t.format with
      | Qcow2 -> "cluster_size: 65536"
      | Raw -> "");
    ]

let parse_virtual_size info =
  let lines = String.split_on_char '\n' info in
  let prefix = "virtual size: " in
  match
    List.find_opt (fun l -> String.length l > String.length prefix && String.sub l 0 (String.length prefix) = prefix) lines
  with
  | None -> Error "no virtual size line"
  | Some line -> (
    (* "virtual size: 20.0G (21474836480 bytes)" - use the byte count *)
    match String.index_opt line '(' with
    | None -> Error "malformed virtual size line"
    | Some i -> (
      let rest = String.sub line (i + 1) (String.length line - i - 1) in
      match String.split_on_char ' ' rest with
      | bytes_str :: _ -> (
        match int_of_string_opt bytes_str with
        | Some b -> Ok (float_of_int b /. (1024. ** 3.))
        | None -> Error ("bad byte count: " ^ bytes_str))
      | [] -> Error "malformed virtual size line"))
