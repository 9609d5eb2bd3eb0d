(* State shared by the workloads: where things live, what a run counts as
   attempted and failed, and the metrics it reports. *)

type ctx = {
  bin : string;  (** the built iolb CLI *)
  scratch : string;  (** this run's private directory, removed at exit *)
  seed : int;
  seconds : float;
}

let bin_path = "_build/default/bin/iolb_cli.exe"
let examples_dir = "examples/kernels"

(* Ops attempted and failed.  An op fails on a nonzero exit, an error or
   [overloaded] response, or a failed output check; the first few reasons
   go to stderr. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }
let reported = ref 0
let op_failed = ref false

(* [attempt ()] starts an op.  An op counts as failed once, however many of
   its checks fail. *)
let attempt () =
  tally.attempted <- tally.attempted + 1;
  op_failed := false

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      if not !op_failed then tally.failed <- tally.failed + 1;
      op_failed := true;
      if !reported < 10 then prerr_endline ("perfbench: check failed: " ^ msg);
      incr reported)
    fmt

(* [check cond fmt] counts a failed check when [cond] is false. *)
let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then fail "%s" msg) fmt

(* [checking f] runs the checks [f]; output they cannot parse fails the op. *)
let checking f =
  try f () with e -> fail "unexpected output (%s)" (Printexc.to_string e)

(* A run-level invariant that is not an op (e.g. counts repeating). *)
let invariant_ok = ref true

let invariant cond msg =
  if not cond then begin
    invariant_ok := false;
    prerr_endline ("perfbench: invariant failed: " ^ msg)
  end

type metric = { name : string; value : float; unit_ : string }

let metrics : metric list ref = ref []
let metric name unit_ value = metrics := { name; value; unit_ } :: !metrics

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

(* [cli ctx args] runs [iolb args]; stderr lands in the scratch space. *)
let cli ctx args =
  Proc.run
    ~err_file:(Filename.concat ctx.scratch "stderr.txt")
    (Array.of_list (ctx.bin :: args))

(* [timed_setup ~reps f] runs a workload's set-up [reps] times and returns
   the last result with the median set-up time in seconds. *)
let timed_setup ~reps f =
  let rec go i acc last =
    if i = reps then (Option.get last, Stats.median acc)
    else
      let r, dt = Clock.time (fun () -> f i) in
      go (i + 1) (dt :: acc) (Some r)
  in
  go 0 [] None

(* One closed-loop client: issue the ops of cycle 0, 1, 2, ... one after
   the other until [seconds] have passed, always finishing the cycle in
   progress so every run executes whole cycles of the op mix.  [exec]
   runs one op and returns its latency in seconds; checks run outside the
   latency but inside the elapsed time.  Returns (latencies, elapsed). *)
let closed_loop ~seconds ~cycle exec =
  let t0 = Clock.now_ns () in
  let lat = ref [] in
  let rec go c =
    List.iter (fun op -> lat := exec op :: !lat) (cycle c);
    if Clock.since_s t0 < seconds then go (c + 1)
  in
  go 0;
  (List.rev !lat, Clock.since_s t0)

(* The end-to-end metrics every workload reports. *)
let report_latency ~ops ~elapsed ~lat_s =
  let ms = List.map (fun s -> s *. 1000.) lat_s in
  metric "ops_per_s" "1/s" (float_of_int ops /. elapsed);
  metric "p50_ms" "ms" (Stats.quantile 0.5 ms);
  metric "p90_ms" "ms" (Stats.quantile 0.9 ms);
  Printf.printf "  %d latency samples over %.2f s\n" (List.length ms) elapsed

let lines s = String.split_on_char '\n' s

(* The integer right after [prefix] in [line], as in "VmHWM:  1234 kB". *)
let int_after ~prefix line =
  if String.starts_with ~prefix line then
    let n = String.length prefix in
    Scanf.sscanf_opt (String.sub line n (String.length line - n)) " %d" Fun.id
  else None

let find_map_lines f s = List.find_map f (lines s)
