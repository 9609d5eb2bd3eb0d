(* Monotonic time and child-process accounting (see sys_stubs.c). *)

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

(* [wait4 pid] reaps [pid]: (exit code, peak resident set in KiB). *)
external wait4 : int -> int * int = "perfbench_wait4"

let since_s t0 = float_of_int (now_ns () - t0) *. 1e-9

(* [time f] is [f ()] and its wall time in seconds. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, since_s t0)
