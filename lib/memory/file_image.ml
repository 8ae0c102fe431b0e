type t = {
  name : string;
  contents : Page.Content.t array;
}

let generate rng ~name ~pages =
  if pages <= 0 then invalid_arg "File_image.generate: pages must be positive";
  { name; contents = Array.init pages (fun _ -> Page.Content.random rng) }

let of_contents ~name contents = { name; contents = Array.copy contents }
let name t = t.name
let pages t = Array.length t.contents
let bytes t = Array.length t.contents * Page.size_bytes
let content t i = t.contents.(i)

let mutate_all t ~salt =
  {
    name = t.name ^ "-v2";
    contents = Array.map (fun c -> Page.Content.mutate c ~salt) t.contents;
  }

let load_into t space ~offset = Address_space.load space ~offset t.contents

let matches t space ~offset =
  let n = pages t in
  let rec check i =
    i >= n || (Page.Content.equal (Address_space.read space (offset + i)) t.contents.(i) && check (i + 1))
  in
  offset + n <= Address_space.pages space && check 0

let all_pages_distinct t =
  let seen = Hashtbl.create (Array.length t.contents) in
  Array.for_all
    (fun c ->
      let key = Page.Content.hash c in
      let dup = List.exists (Page.Content.equal c) (Hashtbl.find_all seen key) in
      Hashtbl.add seen key c;
      not dup)
    t.contents
