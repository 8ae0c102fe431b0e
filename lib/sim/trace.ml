type level = Debug | Info | Warn

type record = {
  time : Time.t;
  level : level;
  component : string;
  message : string;
}

type t = {
  buffer : record Queue.t;
  capacity : int;
}

let create ?(capacity = 65536) () = { buffer = Queue.create (); capacity }

let emit t time level ~component message =
  Queue.push { time; level; component; message } t.buffer;
  if Queue.length t.buffer > t.capacity then ignore (Queue.pop t.buffer)

let emitf t time level ~component fmt =
  Format.kasprintf (fun message -> emit t time level ~component message) fmt

let records t = List.of_seq (Queue.to_seq t.buffer)

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"

let pp_record fmt r =
  Format.fprintf fmt "[%a] %-5s %s: %s" Time.pp r.time (level_to_string r.level) r.component
    r.message
