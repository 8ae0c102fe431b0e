type addr = string
type port = int

type endpoint = {
  addr : addr;
  port : port;
}

type t = {
  id : int;
  src : endpoint;
  dst : endpoint;
  size_bytes : int;
  payload : string;
  encrypted : bool;
}

let header_bytes = 54

let make ?(encrypted = false) ?size_bytes ~id ~src ~dst payload =
  let size_bytes =
    match size_bytes with Some s -> s | None -> String.length payload + header_bytes
  in
  { id; src; dst; size_bytes; payload; encrypted }

let endpoint addr port = { addr; port }

let visible_payload p = if p.encrypted then "<ciphertext>" else p.payload
