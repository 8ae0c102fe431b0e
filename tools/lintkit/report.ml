(* Findings and the three report formats (human text, GitHub Actions
   annotations, JSON). *)

type finding = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
}

let compare_finding a b =
  match String.compare a.file b.file with
  | 0 -> (
    match Int.compare a.line b.line with
    | 0 -> (
      match Int.compare a.col b.col with
      | 0 -> String.compare a.rule b.rule
      | c -> c)
    | c -> c)
  | c -> c

let sort findings = List.sort compare_finding findings

type format = Human | Github

let format_of_string = function
  | "human" -> Some Human
  | "github" -> Some Github
  | _ -> None

let pp_human ppf f =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" f.file f.line f.col f.rule f.message

(* GitHub Actions workflow-command annotation: a line of this shape on
   stdout makes the finding show up inline on the PR diff. Newlines in
   the message would end the command early; URL-encode the characters
   the runner treats specially. *)
let github_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\n' -> Buffer.add_string buf "%0A"
      | '\r' -> Buffer.add_string buf "%0D"
      | '%' -> Buffer.add_string buf "%25"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let pp_github ppf f =
  Format.fprintf ppf "::error file=%s,line=%d,col=%d,title=%s::%s" f.file
    (max 1 f.line) (max 1 f.col) (github_escape f.rule) (github_escape f.message)

let pp = function Human -> pp_human | Github -> pp_github

(* Minimal JSON string escaping: the report contains only paths, rule
   names and fixed message text, but escape defensively anyway. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let finding_to_json f =
  Printf.sprintf
    {|{"file":"%s","line":%d,"col":%d,"rule":"%s","message":"%s"}|}
    (json_escape f.file) f.line f.col (json_escape f.rule) (json_escape f.message)

let to_json ~tool ~files_scanned ~suppressed findings =
  let body = String.concat ",\n    " (List.map finding_to_json (sort findings)) in
  Printf.sprintf
    {|{
  "tool": "%s",
  "files_scanned": %d,
  "suppressed": %d,
  "finding_count": %d,
  "findings": [
    %s
  ]
}
|}
    (json_escape tool) files_scanned suppressed (List.length findings) body
