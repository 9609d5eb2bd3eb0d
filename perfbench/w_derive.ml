(* derive: one client runs cold [iolb bounds --jobs 1 --file SRC], one
   process per source, over the shipped kernels, the remaining baselines
   (emitted with [iolb print] at set-up) and copies of four paper kernels
   whose verify line is enlarged to seeded sizes. *)

open Common
module R = Iolb.Report
module Front = Iolb_front.Front
module Driver = Iolb_front.Driver

let enlarged_kernels = [ "mgs"; "qr_hh_a2v"; "qr_hh_v2q"; "gebd2" ]

type op = { label : string; path : string; enlarged : string option }

let shipped () =
  Sys.readdir examples_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".iolb")
  |> List.sort compare
  |> List.map (fun f -> Filename.remove_extension f)

(* Baselines without a shipped source. *)
let printed () =
  let have = shipped () in
  List.filter_map
    (fun (name, _, _) -> if List.mem name have then None else Some name)
    R.baselines

(* Enlarged copies per kernel and cycle.  Two thirds of a cycle's
   commands are then enlarged copies, so p50 falls among derivations
   instead of among the start-up-bound shipped sources, whose wall time is
   mostly process creation and swings with the host's load. *)
let copies = 7

(* The enlarged copies of cycle [c]: verify sizes M in [14, 32],
   N = max 12 (M / 2), so every size lies in 12..32 and satisfies every
   kernel's [assume M - N - 1 >= 0].  M comes from eight strata; copy [d]
   of kernel [k] takes stratum [7c + d + 2k], so every eight cycles each
   kernel covers every stratum seven times. *)
let enlarged_copies ~seed c =
  List.concat
    (List.mapi
       (fun k kernel ->
         List.init copies (fun d ->
             let r = Rng.make seed (Printf.sprintf "derive-size-%d-%d-%d" c k d) in
             let m = Rng.stratum r ~lo:14 ~hi:32 ~strata:8 ((copies * c) + d + (2 * k)) in
             (kernel, (m, max 12 (m / 2)))))
       enlarged_kernels)

let with_verify src (m, n) =
  lines src
  |> List.map (fun l ->
         if String.starts_with ~prefix:"verify " l then
           Printf.sprintf "verify M = %d, N = %d" m n
         else l)
  |> String.concat "\n"

let enlarged_path dir k (m, n) =
  Filename.concat dir (Printf.sprintf "%s_%dx%d.iolb" k m n)

(* Cycle [c]: every fixed source once and [copies] enlarged copies per
   kernel, in a seeded order. *)
let cycle ~seed ~src_dir c =
  let fixed =
    List.map
      (fun k ->
        { label = k; path = Filename.concat examples_dir (k ^ ".iolb"); enlarged = None })
      (shipped ())
    @ List.map
        (fun k ->
          { label = k; path = Filename.concat src_dir (k ^ ".iolb"); enlarged = None })
        (printed ())
  in
  let big =
    List.map
      (fun (k, (m, n)) ->
        {
          label = Printf.sprintf "%s@%dx%d" k m n;
          path = enlarged_path src_dir k (m, n);
          enlarged = Some k;
        })
      (enlarged_copies ~seed c)
  in
  Rng.shuffle (Rng.make seed (Printf.sprintf "derive-order-%d" c)) (fixed @ big)

(* Enough cycles for any run (a cycle takes well over 0.2 s). *)
let max_cycles ctx = int_of_float (ctx.seconds *. 5.) + 2

(* Set-up: emit the baselines with [iolb print] and write the enlarged
   copies into a fresh directory. *)
let setup ctx rep =
  let dir = Filename.concat ctx.scratch (Printf.sprintf "src%d" rep) in
  mkdir_p dir;
  List.iter
    (fun k ->
      let r = cli ctx [ "print"; k ] in
      if r.Proc.code <> 0 then failwith ("iolb print " ^ k ^ ": " ^ r.Proc.err);
      Proc.write_file (Filename.concat dir (k ^ ".iolb")) r.Proc.out)
    (printed ());
  let written = Hashtbl.create 64 in
  for c = 0 to max_cycles ctx - 1 do
    List.iter
      (fun (k, mn) ->
        let path = enlarged_path dir k mn in
        if not (Hashtbl.mem written path) then begin
          Hashtbl.add written path ();
          let shipped = Proc.read_file (Filename.concat examples_dir (k ^ ".iolb")) in
          Proc.write_file path (with_verify shipped mn)
        end)
      (enlarged_copies ~seed:ctx.seed c)
  done;
  dir

(* The built-in [iolb bounds] report, split into its sections: each runs
   from a "== NAME ==" line to the next one. *)
let builtin_sections ctx =
  let r = cli ctx [ "bounds"; "--jobs"; "1" ] in
  if r.Proc.code <> 0 then failwith ("iolb bounds: " ^ r.Proc.err);
  let sections = Hashtbl.create 8 and current = ref "" in
  List.iter
    (fun l ->
      if String.starts_with ~prefix:"== " l then current := String.sub l 3 (String.length l - 6);
      let before = Option.value ~default:"" (Hashtbl.find_opt sections !current) in
      Hashtbl.replace sections !current (before ^ l ^ "\n"))
    (lines (String.sub r.Proc.out 0 (String.length r.Proc.out - 1)));
  sections

let bound_lines s =
  lines s
  |> List.filter (String.starts_with ~prefix:"[")
  |> List.sort compare

(* Reference outputs, each from a path other than the one under test:
   - a shipped paper source: its section of the built-in [iolb bounds];
   - any other fixed source: the built-in program of that name rendered
     in-process (no parsing);
   - an enlarged copy: the same kernel at another verify size, whose bound
     lines must equal the built-in report's. *)
let references ctx ~src_dir =
  let sections = builtin_sections ctx in
  let refs = Hashtbl.create 32 in
  (* In a child process, so the replay's memo tables stay cold. *)
  Trace_run.in_child (fun () ->
      List.filter_map
        (fun op ->
          match op.enlarged with
          | Some _ -> None
          | None -> (
              let src = Replay.ok_exn (Front.parse_file op.path) in
              match Driver.resolve src with
              | Some e -> Some (op.path, `Section e.R.display)
              | None ->
                  Some
                    ( op.path,
                      `Text
                        (Replay.ok_exn
                           (Driver.render_kernel ~budget:(Iolb_util.Budget.make ())
                              ~logs:false op.label)) )))
        (cycle ~seed:ctx.seed ~src_dir 0))
  |> List.iter (fun (path, r) ->
         Hashtbl.replace refs path
           (match r with `Section name -> Hashtbl.find sections name | `Text t -> t));
  let ref_dir = Filename.concat ctx.scratch "ref" in
  mkdir_p ref_dir;
  List.iter
    (fun k ->
      let path = enlarged_path ref_dir k (13, 12) in
      let shipped = Proc.read_file (Filename.concat examples_dir (k ^ ".iolb")) in
      Proc.write_file path (with_verify shipped (13, 12));
      let r = cli ctx [ "bounds"; "--jobs"; "1"; "--file"; path ] in
      if r.Proc.code <> 0 then failwith ("reference " ^ path ^ ": " ^ r.Proc.err);
      let e = R.find k in
      invariant
        (bound_lines r.Proc.out = bound_lines (Hashtbl.find sections e.R.display))
        (k ^ ": enlarged bound formulas differ from the built-in report");
      Hashtbl.replace refs ("enlarged:" ^ k) r.Proc.out)
    enlarged_kernels;
  refs

let expected refs op =
  match op.enlarged with
  | Some k -> Hashtbl.find refs ("enlarged:" ^ k)
  | None -> Hashtbl.find refs op.path

let run_op ctx refs op =
  attempt ();
  let r = cli ctx [ "bounds"; "--jobs"; "1"; "--file"; op.path ] in
  if r.Proc.code <> 0 then fail "bounds --file %s: exit %d: %s" op.path r.Proc.code r.Proc.err
  else check (r.Proc.out = expected refs op) "bounds --file %s: output differs from its reference" op.path;
  r

let run ctx =
  let src_dir, setup_s = timed_setup ~reps:3 (setup ctx) in
  metric "setup_s" "s" setup_s;
  let refs = references ctx ~src_dir in
  let rss = ref 0 in
  let lat, elapsed =
    closed_loop ~seconds:ctx.seconds ~cycle:(cycle ~seed:ctx.seed ~src_dir)
      (fun op ->
        let r = run_op ctx refs op in
        rss := max !rss r.Proc.rss_kb;
        r.Proc.wall_s)
  in
  report_latency ~ops:(List.length lat) ~elapsed ~lat_s:lat;
  metric "peak_rss_mb" "MB" (float_of_int !rss /. 1024.)

(* Traced pass: the commands of cycle 0, then their in-process replay. *)
let traced ctx =
  let src_dir = setup ctx 0 in
  let refs = references ctx ~src_dir in
  List.map
    (fun op ->
      let r = run_op ctx refs op in
      let kind = if op.enlarged = None then "fixed" else "enlarged" in
      (kind, r.Proc.wall_s, fun () -> Replay.derive_file op.path = r.Proc.out))
    (cycle ~seed:ctx.seed ~src_dir 0)
  |> fun ops -> Trace_run.replay ~ops
