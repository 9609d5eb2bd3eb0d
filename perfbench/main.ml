(* perfbench: end-to-end benchmark of the iolb commands.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe --self-test

   With --trace 0 it times the real commands and prints the end-to-end
   metrics; with --trace 1 it replays the same inputs through the
   libraries with spans and prints the per-layer metrics.  The last line
   of stdout is one JSON object {correct, attempted, failed, metrics}. *)

open Common

let workloads =
  [ ("derive", (W_derive.run, W_derive.traced));
    ("simulate", (W_simulate.run, W_simulate.traced));
    ("serve", (W_serve.run, W_serve.traced));
    ("certify", (W_certify.run, W_certify.traced)) ]

let end_to_end = [ "setup_s"; "ops_per_s"; "p50_ms"; "p90_ms"; "peak_rss_mb" ]

(* A per-layer figure without samples (e.g. a kind the run never sent)
   reads 0, like a layer the workload does not exercise. *)
let json_number v =
  if Float.is_nan v then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~trace =
  let names =
    if trace then List.map (fun (n, u, _) -> (n, u)) Layers.all
    else
      List.map
        (fun n -> (n, (List.find (fun m -> m.name = n) !metrics).unit_))
        end_to_end
  in
  let value n =
    match List.find_opt (fun m -> m.name = n) !metrics with
    | Some m -> m.value
    | None -> 0.
  in
  List.iter (fun (n, u) -> Printf.printf "  %-28s %16.6g %s\n" n (value n) u) names;
  let fields =
    List.map
      (fun (n, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number (value n)) u)
      names
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (tally.failed = 0 && !invariant_ok && tally.attempted > 0)
    tally.attempted tally.failed (String.concat ", " fields)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 | --self-test";
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let self_test = ref false in
  let rec args = function
    | "--workload" :: v :: rest -> workload := v; args rest
    | "--seed" :: v :: rest -> seed := int_of_string v; args rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; args rest
    | "--trace" :: v :: rest -> trace := int_of_string v; args rest
    | "--self-test" :: rest -> self_test := true; args rest
    | [] -> ()
    | _ -> usage ()
  in
  (try args (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let selected = List.assoc_opt !workload workloads in
  if selected = None && not !self_test then usage ();
  if not (Sys.file_exists bin_path && Sys.file_exists examples_dir) then begin
    prerr_endline "perfbench: run from the root of a built iolb checkout";
    exit 2
  end;
  let scratch =
    Filename.concat ".perfbench" (Printf.sprintf "run-%d" (Unix.getpid ()))
  in
  mkdir_p scratch;
  let ctx = { bin = bin_path; scratch; seed = !seed; seconds = !seconds } in
  let code =
    Fun.protect
      ~finally:(fun () -> rm_rf scratch)
      (fun () ->
        match selected with
        | None -> Selftest.run ctx
        | Some _ when !self_test -> Selftest.run ctx
        | Some (run, traced) ->
            Printf.printf "workload %s, seed %d, %g s, trace %d\n%!" !workload
              !seed !seconds !trace;
            if !trace = 1 then begin
              (* The CLI's fixed cost: a cold [iolb list]. *)
              let walls =
                List.init 15 (fun _ -> (cli ctx [ "list" ]).Proc.wall_s *. 1000.)
              in
              metric "cli.startup_ms" "ms" (Stats.median walls);
              traced ctx
            end
            else run ctx;
            print_result ~trace:(!trace = 1);
            0)
  in
  exit code
