type pid = int

type proc = {
  pid : pid;
  name : string;
  cmdline : string;
  started_at : Sim.Time.t;
}

type t = {
  engine : Sim.Engine.t;
  procs : (pid, proc) Hashtbl.t;
  mutable next_pid : pid;
}

(* Roughly where a freshly booted system starts handing out PIDs. *)
let first_pid = 300

let create engine = { engine; procs = Hashtbl.create 64; next_pid = first_pid }

let fresh_pid t =
  let rec find p = if Hashtbl.mem t.procs p then find (p + 1) else p in
  let p = find t.next_pid in
  t.next_pid <- p + 1;
  p

let spawn t ~name ~cmdline =
  let proc =
    { pid = fresh_pid t; name; cmdline; started_at = Sim.Engine.now t.engine }
  in
  Hashtbl.replace t.procs proc.pid proc;
  proc

let kill t pid =
  if Hashtbl.mem t.procs pid then begin
    Hashtbl.remove t.procs pid;
    true
  end
  else false

let find t pid = Hashtbl.find_opt t.procs pid
let exists t pid = Hashtbl.mem t.procs pid

let all t =
  Hashtbl.fold (fun _ p acc -> p :: acc) t.procs []
  |> List.sort (fun a b -> Int.compare a.pid b.pid)

let reassign_pid t ~old_pid ~new_pid =
  match find t old_pid with
  | None -> Error (Printf.sprintf "no process with pid %d" old_pid)
  | Some proc ->
    if old_pid = new_pid then Ok ()
    else if exists t new_pid then Error (Printf.sprintf "pid %d already in use" new_pid)
    else begin
      Hashtbl.remove t.procs old_pid;
      Hashtbl.replace t.procs new_pid { proc with pid = new_pid };
      Ok ()
    end

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  if m = 0 then true
  else begin
    let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
    scan 0
  end

let grep_cmdline t ~substring = List.filter (fun p -> contains_substring p.cmdline substring) (all t)

let ps_ef t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "PID\tPPID\tSTARTED\tCMD\n";
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%d\t-\t%s\t%s\n" p.pid (Sim.Time.to_string p.started_at)
           p.cmdline))
    (all t);
  Buffer.contents buf
