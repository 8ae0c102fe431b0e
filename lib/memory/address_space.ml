type backing =
  | Root of { table : Frame_table.t; frames : Frame_table.frame array }
  | Window of { parent : t; offset : int }

and t = {
  name : string;
  pages : int;
  backing : backing;
  dirty : Dirty.t;
  (* extra bitmaps fired on every write to this space (after delegation
     translation); lets several consumers - migration's live bitmap and
     KSM's rescan filter - observe writes without sharing clear
     schedules. Usually empty or a single element. *)
  mutable watchers : Dirty.t list;
}

let rec frame_table t =
  match t.backing with
  | Root r -> r.table
  | Window w -> frame_table w.parent

let create_root table ~name ~pages =
  if pages <= 0 then invalid_arg "Address_space.create_root: pages must be positive";
  let frames = Array.init pages (fun _ -> Frame_table.alloc table Page.Content.zero) in
  let dirty = Dirty.for_table table pages in
  { name; pages; backing = Root { table; frames }; dirty; watchers = [] }

let window parent ~name ~offset ~pages =
  if offset < 0 || pages <= 0 || offset + pages > parent.pages then
    invalid_arg "Address_space.window: range does not fit in parent";
  let table = frame_table parent in
  {
    name;
    pages;
    backing = Window { parent; offset };
    dirty = Dirty.for_table table pages;
    watchers = [];
  }

let name t = t.name
let pages t = t.pages
let is_root t = match t.backing with Root _ -> true | Window _ -> false

let check t i =
  if i < 0 || i >= t.pages then
    invalid_arg (Printf.sprintf "Address_space %s: page %d out of range" t.name i)

let rec resolve t i =
  check t i;
  match t.backing with
  | Root _ -> (t, i)
  | Window w -> resolve w.parent (w.offset + i)

let root_frames t =
  match t.backing with
  | Root r -> r.frames
  | Window _ -> assert false

(* Root spaces answer directly - no (root, index) tuple - because the
   KSM scan loop reads and resolves frames for every page of every
   registered (always root) space. *)
let frame_at t i =
  match t.backing with
  | Root r ->
    check t i;
    r.frames.(i)
  | Window _ ->
    let root, ri = resolve t i in
    (root_frames root).(ri)

let read t i =
  match t.backing with
  | Root r ->
    check t i;
    Frame_table.content r.table r.frames.(i)
  | Window _ ->
    let root, ri = resolve t i in
    Frame_table.content (frame_table root) (root_frames root).(ri)

type write_kind = Private_write | Cow_break

(* Mark dirty in this space and every ancestor on the delegation path. *)
let rec mark_dirty_chain t i =
  Dirty.set t.dirty i;
  (match t.watchers with
  | [] -> ()
  | ws -> List.iter (fun d -> Dirty.set d i) ws);
  match t.backing with
  | Root _ -> ()
  | Window w -> mark_dirty_chain w.parent (w.offset + i)

let write t i c =
  let root, ri = resolve t i in
  let table = frame_table t in
  let frames = root_frames root in
  let f = frames.(ri) in
  let kind =
    if Frame_table.is_shared table f then begin
      (* Copy-on-write: the shared frame keeps its content for the other
         sharers; this space gets a fresh private copy. *)
      let fresh = Frame_table.alloc table c in
      Frame_table.decref table f;
      frames.(ri) <- fresh;
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

let remap t i f =
  match t.backing with
  | Window _ -> invalid_arg "Address_space.remap: only valid on a root space"
  | Root r ->
    check t i;
    let old = r.frames.(i) in
    if old <> f then begin
      Frame_table.incref r.table f;
      Frame_table.decref r.table old;
      r.frames.(i) <- f
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
  let table = frame_table t in
  let n = ref 0 in
  for i = 0 to t.pages - 1 do
    if Frame_table.is_shared table (frame_at t i) then incr n
  done;
  !n

let check_invariants t =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let table = frame_table t in
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
      | Ok () -> (
        match t.backing with
        | Window _ -> Ok ()
        | Root r ->
          (* each appearance of a frame in this space holds one of its
             references, so per-frame multiplicity is bounded by the
             table's refcount *)
          let counts = Hashtbl.create 64 in
          Array.iter
            (fun f ->
              Hashtbl.replace counts f (1 + Option.value ~default:0 (Hashtbl.find_opt counts f)))
            r.frames;
          let over =
            Hashtbl.fold (fun f n acc -> if n > Frame_table.refcount r.table f then (f, n) :: acc else acc) counts []
            |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
          in
          (match over with
          | [] -> Ok ()
          | (f, n) :: _ ->
            err "space %s: frame %d mapped %d times but refcount is %d" t.name f n
              (Frame_table.refcount r.table f))))
  end
