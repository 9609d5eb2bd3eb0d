(* Determinism self-test of the benchmark itself:
   - a seed names one op list, one set of generated sources and one set of
     outputs; another seed changes the sizes;
   - generated sources live in the scratch space, never under examples/;
   - the exact work counts of the traced pass repeat between two runs.
   Run it with [bash perfbench/run.sh --self-test]. *)

open Common
module Json = Iolb_util.Json

let failures = ref 0

let expect cond msg =
  Printf.printf "  %s %s\n%!" (if cond then "ok  " else "FAIL") msg;
  if not cond then incr failures

(* Every workload's inputs as plain strings, for a seed. *)
let plan ~scratch seed =
  let src_dir = Filename.concat scratch "src" in
  let derive =
    List.concat_map
      (fun c -> List.map (fun (op : W_derive.op) -> op.W_derive.path) (W_derive.cycle ~seed ~src_dir c))
      [ 0; 1; 2; 3 ]
  in
  let simulate =
    List.concat_map
      (fun c -> List.map (fun (op : W_simulate.op) -> String.concat " " op.W_simulate.args) (W_simulate.cycle ~seed c))
      [ 0; 1; 2 ]
  in
  let serve =
    List.concat_map
      (fun c -> List.init 200 (fun j -> (W_serve.request ~seed c j).W_serve.line))
      [ 0; 1 ]
  in
  let certify = List.init 20 (fun j -> String.concat " " (W_certify.args { bin = ""; scratch; seed; seconds = 0. } j)) in
  [ ("derive", derive); ("simulate", simulate); ("serve", serve); ("certify", certify) ]

let tree dir =
  let rec go d =
    Sys.readdir d |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat d f in
           if Sys.is_directory p then go p else [ (p, Digest.to_hex (Digest.file p)) ])
  in
  go dir

let relative ~dir files =
  List.map (fun (p, h) -> (String.sub p (String.length dir) (String.length p - String.length dir), h)) files

(* The exact counts a traced run reports, from its result line. *)
let exact_counts workload seed =
  let r =
    Proc.run ~err_file:"/dev/null"
      [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
         "--seconds"; "2"; "--trace"; "1" |]
  in
  let last = List.rev (lines (String.trim r.Proc.out)) |> List.hd in
  let is_exact name =
    String.starts_with ~prefix:"steps." name
    || List.exists (fun s -> String.ends_with ~suffix:s name) [ "nodes"; "_events"; "_loads"; "_runs" ]
    || name = "check.passed" || name = "check.skipped"
  in
  match Json.of_string last with
  | Ok json -> (
      match (Json.member "correct" json, Json.member "metrics" json) with
      | Some (Json.Bool correct), Some (Json.Obj ms) ->
          (correct, List.filter (fun (n, _) -> is_exact n) ms |> List.map (fun (n, v) -> (n, Json.to_string v)))
      | _ -> (false, []))
  | Error _ -> (false, [])

let run ctx =
  let seed = ctx.seed in
  print_endline "perfbench self-test";
  let a = plan ~scratch:ctx.scratch seed and b = plan ~scratch:ctx.scratch seed in
  let c = plan ~scratch:ctx.scratch (seed + 1) in
  List.iter
    (fun (w, ops) ->
      expect (ops = List.assoc w b) (w ^ ": the same seed gives the same op list");
      expect (ops <> List.assoc w c) (w ^ ": another seed changes the sizes"))
    a;
  let examples_before = tree examples_dir in
  let d1 = W_derive.setup ctx 1 and d2 = W_derive.setup ctx 2 in
  let t1 = tree d1 and t2 = tree d2 in
  expect (relative ~dir:d1 t1 = relative ~dir:d2 t2 && t1 <> [])
    "derive: the same seed generates byte-identical sources";
  expect
    (List.for_all (fun (p, _) -> String.starts_with ~prefix:(ctx.scratch ^ "/") p) (t1 @ t2))
    "generated sources live in the scratch space";
  expect (tree examples_dir = examples_before) "examples/ is left untouched";
  let outputs () =
    List.map
      (fun args -> (cli ctx args).Proc.out)
      ([ [ "simulate"; "mgs"; "-m"; "24"; "-n"; "12" ];
         [ "check"; "--count"; "1"; "--seed"; string_of_int (W_certify.seed_of ctx 0); "--quiet"; "--json"; "-" ] ]
      @ List.filter_map
          (fun (op : W_derive.op) ->
            if op.W_derive.enlarged <> None then Some [ "bounds"; "--jobs"; "1"; "--file"; op.W_derive.path ]
            else None)
          (W_derive.cycle ~seed ~src_dir:d1 0))
  in
  expect (outputs () = outputs ()) "the same inputs give byte-identical outputs";
  List.iter
    (fun w ->
      let ok1, c1 = exact_counts w seed and ok2, c2 = exact_counts w seed in
      expect (ok1 && ok2 && c1 = c2 && c1 <> [])
        (Printf.sprintf "%s: %d exact work counts repeat between two traced runs" w (List.length c1)))
    [ "derive"; "simulate"; "serve"; "certify" ];
  if !failures = 0 then (print_endline "self-test passed"; 0)
  else (Printf.printf "self-test: %d failures\n" !failures; 1)
