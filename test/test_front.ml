(* Affine-program front-end: the DSL parser differential-tested against
   every built-in kernel.  Printing any built-in as DSL and re-parsing it
   must reproduce the program structurally; the shipped textual sources
   under examples/kernels/ must resolve to their built-ins and render
   byte-identical reports through [iolb bounds --file]; malformed sources
   must produce the exact pinned file:line:col diagnostics behind the
   exit-code-2 contract. *)

module Front = Iolb_front.Front
module Diag = Iolb_front.Diag
module Driver = Iolb_front.Driver
module Report = Iolb.Report
module Program = Iolb_ir.Program
module Budget = Iolb_util.Budget
module Pool = Iolb_util.Pool
module EE = Iolb_util.Engine_error

let verify_equal a b =
  let sort l = List.sort (fun (x, _) (y, _) -> String.compare x y) l in
  sort a = sort b

(* Built-in subjects: every registry entry and every baseline. *)
let builtins () =
  List.map
    (fun (e : Report.entry) -> (e.Report.display, e.Report.program, e.Report.verify_params))
    Report.registry
  @ List.map (fun (n, p, v) -> (n, p, v)) Report.baselines

(* print -> parse must be the identity (up to locations) on every
   built-in program, including its verify bindings. *)
let test_roundtrip_builtins () =
  List.iter
    (fun (name, program, verify) ->
      let printed = Front.print ~verify program in
      match Front.parse_string ~file:(name ^ ".iolb") printed with
      | Error d ->
          Alcotest.failf "%s: printed source does not parse: %s" name
            (Diag.to_string d)
      | Ok src ->
          Alcotest.(check bool)
            (name ^ " round-trips structurally")
            true
            (Program.equal src.Front.program program);
          Alcotest.(check bool)
            (name ^ " verify bindings survive")
            true
            (verify_equal src.Front.verify verify))
    (builtins ())

(* Registry programs must resolve back to their own entry; baselines are
   outside the registry and must stay unresolved (custom-program path). *)
let test_resolution () =
  List.iter
    (fun (e : Report.entry) ->
      let printed = Front.print ~verify:e.Report.verify_params e.Report.program in
      match Front.parse_string ~file:"<registry>" printed with
      | Error d -> Alcotest.failf "registry print: %s" (Diag.to_string d)
      | Ok src -> (
          match Driver.resolve src with
          | Some e' ->
              Alcotest.(check string) "resolves to itself" e.Report.display
                e'.Report.display
          | None ->
              Alcotest.failf "%s does not resolve to its own entry"
                e.Report.display))
    Report.registry;
  List.iter
    (fun (name, program, verify) ->
      match Front.parse_string ~file:"<baseline>" (Front.print ~verify program) with
      | Error d -> Alcotest.failf "baseline print: %s" (Diag.to_string d)
      | Ok src ->
          Alcotest.(check bool)
            (name ^ " is not a registry entry")
            true
            (Driver.resolve src = None))
    Report.baselines

(* Tests run with cwd = test/ under [dune runtest] but cwd = the project
   root under [dune exec test/main.exe]; resolve data paths under both. *)
let locate path =
  let stripped =
    if String.length path >= 3 && String.sub path 0 3 = "../" then
      String.sub path 3 (String.length path - 3)
    else Filename.concat "test" path
  in
  if Sys.file_exists path then path
  else if Sys.file_exists stripped then stripped
  else path

(* The shipped example sources: registry entry display -> file. *)
let example_files =
  List.map
    (fun (d, f) -> (d, locate ("../examples/kernels/" ^ f)))
    [
      ("MGS", "mgs.iolb");
      ("QR HH A2V", "qr_hh_a2v.iolb");
      ("QR HH V2Q", "qr_hh_v2q.iolb");
      ("GEBD2", "gebd2.iolb");
      ("GEHD2", "gehd2.iolb");
    ]

let baseline_files =
  List.map
    (fun (d, f) -> (d, locate ("../examples/kernels/" ^ f)))
    [
      ("gemm", "gemm.iolb");
      ("lu", "lu.iolb");
      ("cholesky", "cholesky.iolb");
    ]

let parse_file_ok path =
  match Front.parse_file path with
  | Ok src -> src
  | Error e -> Alcotest.failf "%s: %s" path (EE.to_string e)

let test_examples_resolve () =
  List.iter
    (fun (display, path) ->
      let src = parse_file_ok path in
      match Driver.resolve src with
      | Some e ->
          Alcotest.(check string) (path ^ " resolves") display e.Report.display
      | None -> Alcotest.failf "%s does not resolve to a built-in" path)
    example_files;
  List.iter
    (fun (name, path) ->
      let src = parse_file_ok path in
      let _, program, verify =
        List.find (fun (n, _, _) -> n = name) Report.baselines
      in
      Alcotest.(check bool)
        (path ^ " equals the built-in baseline")
        true
        (Program.equal src.Front.program program
        && verify_equal src.Front.verify verify))
    baseline_files

(* Byte-identity: the report rendered from the textual source must equal
   the report rendered from the built-in name, for both the bounds view
   (logs:false) and the analyze view (logs:true). *)
let test_reports_byte_identical () =
  let budget = Budget.unlimited in
  let subjects =
    example_files @ baseline_files
  in
  List.iter
    (fun (name, path) ->
      List.iter
        (fun logs ->
          let from_name =
            match Driver.render_kernel ~budget ~logs name with
            | Ok s -> s
            | Error e -> Alcotest.failf "%s: %s" name (EE.to_string e)
          in
          let from_file =
            match Driver.render_file ~budget ~logs path with
            | Ok s -> s
            | Error e -> Alcotest.failf "%s: %s" path (EE.to_string e)
          in
          Alcotest.(check string)
            (Printf.sprintf "%s logs:%b file = name" name logs)
            from_name from_file)
        [ false; true ])
    subjects

(* The worker fan-out behind [iolb bounds --jobs N --file ...] must be
   byte-deterministic: same concatenated report at every worker count. *)
let test_jobs_deterministic () =
  let budget = Budget.unlimited in
  let files = List.map snd (example_files @ baseline_files) in
  let render ~jobs =
    String.concat ""
      (Pool.map ~jobs
         (fun path ->
           match Driver.render_file ~budget ~logs:false path with
           | Ok s -> s
           | Error e -> "error: " ^ EE.to_string e)
         files)
  in
  let seq = render ~jobs:1 in
  Alcotest.(check string) "jobs 4 = jobs 1" seq (render ~jobs:4)

(* ------------------------------------------------------------------ *)
(* One subject per command: the bounds are derived at the source's
   verify sizes, the run sizes only instantiate the game. *)

let subject_ok what = function
  | Ok s -> s
  | Error e -> Alcotest.failf "%s: %s" what (EE.to_string e)

let games subject =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  (match
     Driver.play_games ~budget:Budget.unlimited ~s:256 ~seed:0 subject ppf
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "play_games: %s" (EE.to_string e));
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* [simulate --file K.iolb --param M=48 --param N=24] prints the bytes of
   [simulate K -m 48 -n 24]. *)
let test_simulate_file_matches_builtin () =
  let budget = Budget.unlimited in
  List.iter
    (fun (kernel, file) ->
      let src = parse_file_ok (locate ("../examples/kernels/" ^ file)) in
      let from_file =
        Driver.of_source ~budget ~run:[ ("M", 48); ("N", 24) ] src
        |> subject_ok file
      in
      let entry = Report.find kernel in
      let from_name =
        Driver.of_entry ~budget
          ~run:(Result.get_ok (Report.concrete_params entry ~m:48 ~n:24))
          entry
        |> subject_ok kernel
      in
      Alcotest.(check string)
        (kernel ^ ": simulate --file = simulate KERNEL")
        (games from_name) (games from_file))
    [ ("mgs", "mgs.iolb"); ("qr_hh_a2v", "qr_hh_a2v.iolb") ]

(* Run-size overrides move [run] only: [verify] stays the source's
   clause, and so does the derivation (same report as [bounds --file]). *)
let test_overrides_keep_verify () =
  let budget = Budget.unlimited in
  let path = locate "../examples/kernels/mgs.iolb" in
  let src = parse_file_ok path in
  let subject =
    Driver.of_source ~budget ~run:[ ("N", 16); ("M", 40); ("N", 20) ] src
    |> subject_ok "mgs overrides"
  in
  Alcotest.(check (list (pair string int)))
    "verify is the source's clause" src.Front.verify subject.Driver.verify;
  Alcotest.(check (list (pair string int)))
    "run takes the last override of each name"
    [ ("M", 40); ("N", 20) ] subject.Driver.run;
  Alcotest.(check string) "report derived at the verify sizes"
    (Result.get_ok (Driver.render_file ~budget ~logs:false path))
    (Driver.render ~logs:false subject);
  let plain = Driver.of_source ~budget src |> subject_ok "mgs" in
  Alcotest.(check (list (pair string int)))
    "no overrides: run = verify" src.Front.verify plain.Driver.run

(* A source that resolves to no built-in (GEMM) derives through the
   ladder; [simulate --file] evaluates the very bound [bounds --file]
   prints. *)
let test_nonresolving_same_bound () =
  let budget = Budget.unlimited in
  let path = locate "../examples/kernels/gemm.iolb" in
  let src = parse_file_ok path in
  Alcotest.(check bool) "gemm resolves to no built-in" true
    (Driver.resolve src = None);
  let run = [ ("M", 12); ("N", 10); ("K", 8) ] in
  let subject = Driver.of_source ~budget ~run src |> subject_ok "gemm" in
  Alcotest.(check string) "same bounds as bounds --file"
    (Result.get_ok (Driver.render_file ~budget ~logs:false path))
    (Driver.render ~logs:false subject);
  let bounds = (Driver.outcome subject).Iolb.Derive.bounds in
  let s = 16 in
  let expected =
    match Iolb.Derive.best ~params:run ~s bounds with
    | Some b -> [ ("derived", Iolb.Derive.eval b ~params:run ~s) ]
    | None -> Alcotest.fail "gemm: no applicable bound"
  in
  Alcotest.(check (list (pair string (float 0.))))
    "simulate --file evaluates the derived bound" expected
    (Driver.bound_lines subject ~params:run ~s)

(* Run sizes outside the source's [assume] constraints are invalid input
   naming the parameter and the constraint, as -m/-n are for built-ins. *)
let test_run_sizes_checked () =
  let budget = Budget.unlimited in
  let src = parse_file_ok (locate "../examples/kernels/mgs.iolb") in
  List.iter
    (fun (run, expected) ->
      match Driver.of_source ~budget ~run src with
      | Ok _ -> Alcotest.failf "%s: accepted" expected
      | Error e ->
          Alcotest.(check string) expected ("invalid input: " ^ expected)
            (EE.to_string e);
          Alcotest.(check int) (expected ^ ": exit code") 2 (EE.exit_code e))
    [
      ( [ ("M", -3) ],
        "run sizes violate assumption M - N >= 0 of kernel mgs (M = -3, N = \
         4)" );
      ( [ ("N", 1) ],
        "run sizes violate assumption N - 2 >= 0 of kernel mgs (N = 1)" );
      ( [ ("Q", 3) ],
        "--param Q=3: Q is not a parameter of kernel mgs" );
    ]

(* ------------------------------------------------------------------ *)
(* Golden diagnostics: the malformed corpus under test/data/ is pinned
   to exact file:line:col messages and the Invalid_input embedding the
   CLI renders (exit code 2, "iolb: error: " ^ message). *)

let malformed_corpus =
  (* file, located diagnostic with %s holding the resolved path (which
     differs between dune runtest and dune exec cwds) *)
  [
    ("data/bad_token.iolb", fun p ->
      Printf.sprintf "invalid input: %s:5:23: unexpected character '$'" p);
    ("data/non_affine.iolb", fun p ->
      Printf.sprintf
        "invalid input: %s:6:14: non-affine product i * j: one operand of \
         '*' must be constant (subscripts and bounds are affine in loop \
         variables and parameters)"
        p);
    ("data/unbound.iolb", fun p ->
      Printf.sprintf
        "invalid input: %s:5:20: unbound name k (visible here: i, N)" p);
    ("data/negative_bound.iolb", fun p ->
      Printf.sprintf
        "invalid input: %s:3:7: negative bound: i iterates 3 .. 1, a trip \
         count of -1 (bounds are inclusive)"
        p);
    ("data/dup_stmt.iolb", fun p ->
      Printf.sprintf
        "invalid input: %s:6:5: duplicate statement id S0 (first defined \
         at %s:5:5)"
        p p);
  ]

let test_malformed_corpus () =
  List.iter
    (fun (file, expected) ->
      let path = locate file in
      match Front.parse_file path with
      | Ok _ -> Alcotest.failf "%s unexpectedly parsed" path
      | Error e ->
          Alcotest.(check string) path (expected path) (EE.to_string e);
          Alcotest.(check int) (path ^ " exit code") 2 (EE.exit_code e))
    malformed_corpus

(* Inline golden diagnostics for failure modes the corpus files cannot
   carry (they live before the body). *)
let inline_diags =
  [
    ( "unbound parameter in verify",
      "kernel k(N)\nverify N = 4, M = 2\n{\n  S: a = f();\n}\n",
      "<inline>:2:15: verify binds M, which is not a parameter of kernel k" );
    ( "missing verify value",
      "kernel k(N)\n{\n  for i = 0 .. N - 1 {\n    S: A[i] = f();\n  }\n}\n",
      "<inline>:1:10: parameter N has no verify value (add 'verify N = \
       <size>' so patterns can be verified at concrete sizes)" );
    ( "duplicate parameter",
      "kernel k(N, N)\nverify N = 4\n{\n  S: a = f();\n}\n",
      "<inline>:1:13: duplicate parameter N" );
    ( "parse error",
      "kernel k()\n{\n  S: a = f()\n}\n",
      "<inline>:4:1: expected ';' terminating the statement, got '}'" );
  ]

let test_inline_diags () =
  List.iter
    (fun (what, src, expected) ->
      match Front.parse_string ~file:"<inline>" src with
      | Ok _ -> Alcotest.failf "%s: unexpectedly parsed" what
      | Error d -> Alcotest.(check string) what expected (Diag.to_string d))
    inline_diags

(* ------------------------------------------------------------------ *)
(* The unknown-kernel error must advertise both kernel families and the
   --file escape hatch (the regression this PR's small fix pinned). *)

let test_unknown_kernel_message () =
  match Report.find_checked "nope" with
  | Ok _ -> Alcotest.fail "find_checked accepted an unknown name"
  | Error e ->
      let msg = EE.to_string e in
      let mentions needle =
        Alcotest.(check bool)
          (Printf.sprintf "mentions %s" needle)
          true
          (let nl = String.length needle and ml = String.length msg in
           let rec scan i =
             i + nl <= ml && (String.sub msg i nl = needle || scan (i + 1))
           in
           scan 0)
      in
      List.iter mentions [ "mgs"; "gehd2"; "gemm"; "jacobi1d"; "--file" ]

(* A shrunk counterexample's source artifact must itself parse - the
   reproducer the certifier prints is always a valid .iolb file. *)
let test_shrunk_source_parses () =
  let props =
    match Iolb_check.Oracle.find "demo-broken" with
    | Ok ps -> ps
    | Error e -> Alcotest.fail e
  in
  let report = Iolb_check.Check.run ~count:2 ~seed:0 ~props () in
  Alcotest.(check bool) "demo-broken fails" false (Iolb_check.Check.ok report);
  List.iter
    (fun (f : Iolb_check.Check.failure) ->
      match Front.parse_string ~file:"<shrunk>" f.shrunk_source with
      | Ok _ -> ()
      | Error d ->
          Alcotest.failf "shrunk source does not parse: %s" (Diag.to_string d))
    report.Iolb_check.Check.failures

let suite =
  [
    Alcotest.test_case "roundtrip-builtins" `Quick test_roundtrip_builtins;
    Alcotest.test_case "resolution" `Quick test_resolution;
    Alcotest.test_case "examples-resolve" `Quick test_examples_resolve;
    Alcotest.test_case "reports-byte-identical" `Slow
      test_reports_byte_identical;
    Alcotest.test_case "jobs-deterministic" `Slow test_jobs_deterministic;
    Alcotest.test_case "simulate-file-matches-builtin" `Quick
      test_simulate_file_matches_builtin;
    Alcotest.test_case "overrides-keep-verify" `Quick
      test_overrides_keep_verify;
    Alcotest.test_case "nonresolving-same-bound" `Quick
      test_nonresolving_same_bound;
    Alcotest.test_case "run-sizes-checked" `Quick test_run_sizes_checked;
    Alcotest.test_case "malformed-corpus" `Quick test_malformed_corpus;
    Alcotest.test_case "inline-diagnostics" `Quick test_inline_diags;
    Alcotest.test_case "unknown-kernel-message" `Quick
      test_unknown_kernel_message;
    Alcotest.test_case "shrunk-source-parses" `Quick test_shrunk_source_parses;
  ]
