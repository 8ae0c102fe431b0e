(* corpus: broken allow comments — reason missing, and a stale allow
   with nothing to suppress. Two meta-findings; the reasonless allow
   does NOT suppress, so the Sys.time beneath it still fires too. *)

(* skulkscope: allow wall-clock *)
let t () = Sys.time ()

(* skulkscope: allow random-global — there is no Random use here at all *)
let pure = 42
