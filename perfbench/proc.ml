(* Running the built [iolb] binary as users do: one process per command,
   stdout captured, timed from spawn to reap. *)

type result = {
  code : int;
  out : string;
  err : string;  (** stderr, read only when [code <> 0] *)
  wall_s : float;
  rss_kb : int;  (** the process's peak resident set *)
}

let read_fd fd =
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents buf

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* [spawn ~stdout ~stderr argv] starts [argv] with stdin on /dev/null. *)
let spawn ~stdout ~stderr argv =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid = Unix.create_process argv.(0) argv null stdout stderr in
  Unix.close null;
  pid

(* [run ~err_file argv] runs one command to completion.  stderr goes to
   [err_file] so a failing command can be reported. *)
let run ~err_file argv =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_fd =
    Unix.openfile err_file
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let t0 = Clock.now_ns () in
  let pid = spawn ~stdout:out_w ~stderr:err_fd argv in
  Unix.close out_w;
  Unix.close err_fd;
  let out = read_fd out_r in
  Unix.close out_r;
  let code, rss_kb = Clock.wait4 pid in
  let wall_s = Clock.since_s t0 in
  let err = if code = 0 then "" else read_file err_file in
  { code; out; err; wall_s; rss_kb }
