module Report = Iolb.Report
module D = Iolb.Derive
module Hourglass = Iolb.Hourglass
module Program = Iolb_ir.Program
module Deps = Iolb_ir.Deps
module Affine = Iolb_poly.Affine
module Constr = Iolb_poly.Constr
module Cdag = Iolb_cdag.Cdag
module Game = Iolb_pebble.Game
module Engine_error = Iolb_util.Engine_error

let ( let* ) = Result.bind

(* Verify bindings are order-insensitive: the printer emits them in
   program-parameter order, the registry stores them in historical order. *)
let verify_equal a b =
  let sort l = List.sort (fun (x, _) (y, _) -> String.compare x y) l in
  List.equal
    (fun (x, (v : int)) (y, w) -> String.equal x y && v = w)
    (sort a) (sort b)

let resolve (src : Front.source) =
  List.find_opt
    (fun (e : Report.entry) ->
      Program.equal e.program src.Front.program
      && verify_equal e.verify_params src.Front.verify)
    Report.registry

(* ------------------------------------------------------------------ *)
(* The subject of a command, resolved once.                            *)

(* What the derivation produced: a registry entry's paper analysis (its
   [entry] is the resolved built-in), or the degradation ladder's outcome
   with the hourglass patterns its first rung verified. *)
type analysis =
  | Builtin of Report.analysis
  | Derived of { hourglasses : Hourglass.t list; outcome : D.outcome }

(* [verify] is the derivation witness - always the source's [verify]
   clause or the registry entry's sizes - and [run] the sizes the command
   instantiates the program at (-m/-n, --param; [verify] by default).
   The bound is a formula valid at every size, so only [run] grows with
   the simulation. *)
type subject = {
  program : Program.t;
  verify : (string * int) list;
  run : (string * int) list;
  analysis : analysis;
}

let make ~budget ~program ~verify ~run entry =
  let* analysis =
    match entry with
    | Some entry ->
        Result.map (fun a -> Builtin a) (Report.analyze_checked ~budget entry)
    | None ->
        let* hourglasses, outcome =
          D.ladder_with_patterns ~budget ~verify_params:verify program
        in
        Ok (Derived { hourglasses; outcome })
  in
  Ok { program; verify; run; analysis }

let of_entry ~budget ?run (entry : Report.entry) =
  let verify = entry.verify_params in
  make ~budget ~program:entry.program ~verify
    ~run:(Option.value run ~default:verify)
    (Some entry)

(* Run sizes of a source: its verify bindings, each replaced by the last
   override naming it.  Overridden sizes must name parameters and satisfy
   the source's [assume] constraints, as -m/-n must for a built-in. *)
let run_sizes (src : Front.source) overrides =
  let p = src.Front.program in
  let* () =
    match
      List.find_opt
        (fun (name, _) -> not (List.mem_assoc name src.Front.verify))
        overrides
    with
    | Some (name, v) ->
        Error
          (Engine_error.Invalid_input
             (Printf.sprintf "--param %s=%d: %s is not a parameter of kernel %s"
                name v name p.Program.name))
    | None -> Ok ()
  in
  let run =
    List.map
      (fun (name, v) ->
        ( name,
          List.fold_left
            (fun v (o, w) -> if String.equal o name then w else v)
            v overrides ))
      src.Front.verify
  in
  let size name = List.assoc name run in
  match
    List.find_opt (fun c -> not (Constr.satisfied size c)) p.Program.assumptions
  with
  | Some c ->
      Error
        (Engine_error.Invalid_input
           (Format.asprintf
              "run sizes violate assumption %a of kernel %s (%s)"
              Constr.pp c p.Program.name
              (String.concat ", "
                 (List.map
                    (fun x -> Printf.sprintf "%s = %d" x (size x))
                    (Affine.vars c.Constr.expr)))))
  | None -> Ok run

let of_source ~budget ?run (src : Front.source) =
  let* run =
    match run with
    | None -> Ok src.Front.verify
    | Some overrides -> run_sizes src overrides
  in
  make ~budget ~program:src.Front.program ~verify:src.Front.verify ~run
    (resolve src)

let hourglasses subject =
  match subject.analysis with
  | Builtin a -> a.Report.hourglasses
  | Derived d -> d.hourglasses

let outcome subject =
  match subject.analysis with
  | Builtin a -> { D.bounds = a.Report.bounds; degradation = a.Report.degradation }
  | Derived d -> d.outcome

(* Labelled lower bounds at a point: a built-in's best classical and best
   hourglass bound, any other program's best derived bound. *)
let bound_lines subject ~params ~s =
  match subject.analysis with
  | Builtin a ->
      List.filter_map
        (fun (label, technique) ->
          Report.eval_best_at a ~technique ~params ~s
          |> Option.map (fun v -> (label, v)))
        [ ("classical", `Classical); ("hourglass", `Hourglass) ]
  | Derived { outcome; _ } -> (
      match D.best ~params ~s outcome.D.bounds with
      | Some b -> [ ("derived", D.eval b ~params ~s) ]
      | None -> [])

let pp_degradation ppf subject =
  match (outcome subject).D.degradation with
  | Some why -> Format.fprintf ppf "degraded: %s@." why
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

(* The exact bytes [iolb analyze] prints after the report: a blank line,
   the bound, then (with [logs]) its derivation log. *)
let render_bounds ~logs bounds =
  String.concat ""
    (List.map
       (fun (b : D.t) ->
         Format.asprintf "@.%a@." D.pp b
         ^
         if logs then
           String.concat ""
             (List.map (fun l -> Format.asprintf "    | %s@." l) b.D.log)
         else "")
       bounds)

let render_analysis ~logs (a : Report.analysis) =
  (* The registry report already lists each bound; the trailing section
     repeats them only to attach the derivation logs. *)
  Format.asprintf "%a@." Report.pp_analysis a
  ^ if logs then render_bounds ~logs a.Report.bounds else ""

let render_outcome ~logs (o : D.outcome) =
  (match o.D.degradation with
  | Some why -> Format.asprintf "degraded: %s@." why
  | None -> (
      match o.D.bounds with
      | [] ->
          Format.asprintf
            "no bound derivable (no hourglass; Brascamp-Lieb exponent <= 1)@."
      | _ :: _ -> ""))
  ^ render_bounds ~logs o.D.bounds

let render ~logs subject =
  match subject.analysis with
  | Builtin a -> render_analysis ~logs a
  | Derived d -> render_outcome ~logs d.outcome

let render_source ~budget ~logs src =
  let* subject = of_source ~budget src in
  Ok (render ~logs subject)

let render_kernel ~budget ~logs name =
  match Report.find_checked name with
  | Ok entry ->
      let* subject = of_entry ~budget entry in
      Ok (render ~logs subject)
  | Error e -> (
      match List.find_opt (fun (n, _, _) -> n = name) Report.baselines with
      | Some (_, program, verify) ->
          render_source ~budget ~logs { Front.program; verify }
      | None -> Error e)

let render_file ~budget ~logs path =
  let* src = Front.parse_file path in
  render_source ~budget ~logs src

(* [iolb simulate] without --sizes: the CDAG at the run sizes, the
   program-order and random-order pebble games, and the subject's lower
   bounds.  Lines go out as they are produced, so a budget error after
   the CDAG still leaves its statistics on [ppf]. *)
let play_games ~budget ~s ~seed subject ppf =
  let* cdag =
    Cdag.of_program_checked ~budget ~params:subject.run subject.program
  in
  Format.fprintf ppf "%a@." Cdag.pp_stats cdag;
  pp_degradation ppf subject;
  let* prog_run =
    Game.run_checked ~budget cdag ~s ~schedule:(Game.program_schedule cdag)
  in
  let* random =
    Game.run_checked ~budget cdag ~s
      ~schedule:(Game.random_topological ~seed cdag)
  in
  Format.fprintf ppf "pebble game at S=%d:@." s;
  Format.fprintf ppf "  program order : %d loads (peak red %d)@."
    prog_run.Game.loads prog_run.Game.peak_red;
  Format.fprintf ppf "  random order  : %d loads (peak red %d)@."
    random.Game.loads random.Game.peak_red;
  List.iter
    (fun (label, v) -> Format.fprintf ppf "  lower bound (%s): %.1f@." label v)
    (bound_lines subject ~params:subject.run ~s);
  Ok ()

let rec count_stmts n = function
  | Program.Stmt _ -> n + 1
  | Program.Loop { body; _ } -> List.fold_left count_stmts n body

let describe (src : Front.source) =
  let p = src.Front.program in
  Printf.sprintf "kernel %s: %d parameters, %d statements, %d dependence relations%s"
    p.Program.name
    (List.length p.Program.params)
    (List.fold_left count_stmts 0 p.Program.body)
    (List.length (Deps.relations p))
    (match resolve src with
    | Some e -> Printf.sprintf " (matches built-in %s)" e.Report.display
    | None -> "")
