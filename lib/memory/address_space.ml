(* Windows never move, so every space resolves its place in the root
   once, at creation: [frames] is the root's frame array (shared by the
   whole window tree) and [base] the root index of this space's page 0.
   Page [i] of any space, at any nesting depth, is [frames.(base + i)];
   [parent] is kept only to mark dirt up the chain. *)
type t = {
  name : string;
  pages : int;
  table : Frame_table.t;
  frames : Frame_table.frame array;
  base : int;
  parent : t option;
  dirty : Dirty.t;
  (* extra bitmaps fired on every write to this space (after delegation
     translation); lets several consumers - migration's live bitmap and
     KSM's rescan filter - observe writes without sharing clear
     schedules. Usually empty or a single element. *)
  mutable watchers : Dirty.t list;
}

let create_root table ~name ~pages =
  if pages <= 0 then invalid_arg "Address_space.create_root: pages must be positive";
  let frames = Array.init pages (fun _ -> Frame_table.alloc table Page.Content.zero) in
  let dirty = Dirty.for_table table pages in
  { name; pages; table; frames; base = 0; parent = None; dirty; watchers = [] }

let window parent ~name ~offset ~pages =
  if offset < 0 || pages <= 0 || offset + pages > parent.pages then
    invalid_arg "Address_space.window: range does not fit in parent";
  {
    name;
    pages;
    table = parent.table;
    frames = parent.frames;
    base = parent.base + offset;
    parent = Some parent;
    dirty = Dirty.for_table parent.table pages;
    watchers = [];
  }

let name t = t.name
let pages t = t.pages
let is_root t = Option.is_none t.parent

let out_of_range t i =
  invalid_arg (Printf.sprintf "Address_space %s: page %d out of range" t.name i)

let[@inline] check t i = if i < 0 || i >= t.pages then out_of_range t i

let rec root t = match t.parent with None -> t | Some p -> root p

let resolve t i =
  check t i;
  (root t, t.base + i)

let[@inline] frame_at t i =
  check t i;
  t.frames.(t.base + i)

let[@inline] read t i = Frame_table.content t.table (frame_at t i)

type write_kind = Private_write | Cow_break

let rec mark_watchers ws i =
  match ws with
  | [] -> ()
  | d :: rest ->
    Dirty.set d i;
    mark_watchers rest i

(* Mark dirty in this space and every ancestor on the delegation path. *)
let rec mark_dirty_chain t i =
  Dirty.set t.dirty i;
  mark_watchers t.watchers i;
  match t.parent with
  | None -> ()
  | Some p -> mark_dirty_chain p (t.base - p.base + i)

(* The body of [write], inlined into [mutate] and [copy] so the content
   stays an unboxed int64 from the load to the store. *)
let[@inline] store t i c =
  check t i;
  let ri = t.base + i in
  let table = t.table in
  let f = t.frames.(ri) in
  let kind =
    if Frame_table.is_shared table f then begin
      (* Copy-on-write: the shared frame keeps its content for the other
         sharers; this space gets a fresh private copy. *)
      let fresh = Frame_table.alloc table c in
      Frame_table.decref table f;
      t.frames.(ri) <- fresh;
      Frame_table.note_cow_break table;
      Cow_break
    end
    else begin
      Frame_table.write table f c;
      Private_write
    end
  in
  mark_dirty_chain t i;
  kind

let write t i c = store t i c
let mutate t i ~salt = store t i (Page.Content.mutate (read t i) ~salt)
let copy ~src i ~dst j = store dst j (read src i)

let remap t i f =
  if not (is_root t) then invalid_arg "Address_space.remap: only valid on a root space";
  check t i;
  let old = t.frames.(i) in
  if old <> f then begin
    Frame_table.incref t.table f;
    Frame_table.decref t.table old;
    t.frames.(i) <- f
  end

let dirty t = t.dirty

let watch_writes t d =
  if Dirty.length d <> t.pages then
    invalid_arg "Address_space.watch_writes: bitmap length must equal pages";
  if not (List.memq d t.watchers) then t.watchers <- d :: t.watchers

let unwatch_writes t d = t.watchers <- List.filter (fun d' -> not (d' == d)) t.watchers

let load t ~offset contents =
  Array.iteri (fun k c -> ignore (write t (offset + k) c)) contents

let contents t = Array.init t.pages (fun i -> read t i)

let shared_page_count t =
  let table = t.table in
  let n = ref 0 in
  for i = 0 to t.pages - 1 do
    if Frame_table.is_shared table (frame_at t i) then incr n
  done;
  !n

let check_invariants t =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let table = t.table in
  if Dirty.length t.dirty <> t.pages then
    err "space %s: dirty bitmap covers %d pages, space has %d" t.name (Dirty.length t.dirty)
      t.pages
  else begin
    match List.find_opt (fun d -> Dirty.length d <> t.pages) t.watchers with
    | Some d ->
      err "space %s: write-observer bitmap covers %d pages, space has %d" t.name
        (Dirty.length d) t.pages
    | None -> (
      let rec live i =
        if i >= t.pages then Ok ()
        else if not (Frame_table.is_live table (frame_at t i)) then
          err "space %s: page %d resolves to dead frame %d" t.name i (frame_at t i)
        else live (i + 1)
      in
      match live 0 with
      | Error _ as e -> e
      | Ok () when not (is_root t) -> Ok ()
      | Ok () -> (
        (* each appearance of a frame in this space holds one of its
           references, so per-frame multiplicity is bounded by the
           table's refcount *)
        let counts = Hashtbl.create 64 in
        Array.iter
          (fun f ->
            Hashtbl.replace counts f (1 + Option.value ~default:0 (Hashtbl.find_opt counts f)))
          t.frames;
        let over =
          Hashtbl.fold (fun f n acc -> if n > Frame_table.refcount table f then (f, n) :: acc else acc) counts []
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        in
        match over with
        | [] -> Ok ()
        | (f, n) :: _ ->
          err "space %s: frame %d mapped %d times but refcount is %d" t.name f n
            (Frame_table.refcount table f)))
  end
