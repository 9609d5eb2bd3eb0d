(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Figures 4 and 5, Theorems 5-9, Appendix A.1/A.2), plus the
   empirical validation and ablation studies called out in DESIGN.md, and
   Bechamel timings of the analysis pipeline.

   Absolute constants are not expected to match the authors' testbed; the
   shapes are: who wins, by what parametric factor, and where the regimes
   cross over.  EXPERIMENTS.md records the outcome per section.

   Usage: main.exe [SECTION ...] [--jobs N] [--json PATH] [--compare OLD]

   --jobs N     fan independent work (registry analyses, validation games,
                cache-simulation sweeps, split searches) across N domains.
                Defaults to IOLB_JOBS or the recommended domain count.
                Section output is byte-identical for every N.
   --json PATH  additionally write a machine-readable report: per-section
                wall time, worker count, peak RSS, throughput and key result
                metrics (the BENCH_* baseline files; schema_version 2,
                documented in README "Performance").
   --compare OLD  load a prior --json baseline (schema 1 or 2), print
                per-section wall-time and per-metric ns_per_run deltas (to
                stderr, keeping stdout byte-stable), and exit non-zero on any
                regression of more than 25% (with absolute guards against
                noise: 50 ms on section wall times, 50 us on microbenchmark
                metrics).  Sections absent from the baseline are noted as
                new and skipped.

   The SWEEP_SCALE section additionally reads IOLB_SWEEP_SCALE
   (default | ci | full) to pick its workload tier; see its header. *)

module D = Iolb.Derive
module PF = Iolb.Paper_formulas
module Report = Iolb.Report
module Hourglass = Iolb.Hourglass
module Phi = Iolb.Phi
module Bl = Iolb.Bl
module R = Iolb_symbolic.Ratfun
module Program = Iolb_ir.Program
module Cdag = Iolb_cdag.Cdag
module Game = Iolb_pebble.Game
module Cache = Iolb_pebble.Cache
module Sweep = Iolb_pebble.Sweep
module Trace = Iolb_pebble.Trace
module Pool = Iolb_util.Pool
module Json = Iolb_util.Json
module K = Iolb_kernels
module Matrix = Iolb_kernels.Matrix

let section name =
  Printf.printf "\n==================== %s ====================\n" name

let pf = Printf.printf

(* Worker count for every fan-out below; set once at startup. *)
let jobs = ref 1

let pmap f xs = Pool.map ~jobs:!jobs f xs

(* Metrics collected by the running section, emitted into the --json
   report.  Purely additive: stdout is independent of the collector. *)
let current_metrics : (string * Json.t) list ref = ref []
let metric_i key v = current_metrics := (key, Json.Int v) :: !current_metrics
let metric_f key v = current_metrics := (key, Json.Float v) :: !current_metrics

let now = Unix.gettimeofday

(* Peak resident set (VmHWM) of this process in kB; 0 where /proc is not
   available.  Monotone over the run, so a section's value is the
   high-water mark up to its end - enough to catch a section that drags
   memory from O(footprint) back to O(trace). *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go () =
        match input_line ic with
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun k -> k)
            else go ()
        | exception End_of_file -> 0
      in
      let r = try go () with Scanf.Scan_failure _ | Failure _ -> 0 in
      close_in_noerr ic;
      r

(* ------------------------------------------------------------------ *)
(* Figure 4: asymptotic lower bounds, old vs new.                      *)

let leading_term (r : R.t) =
  let module P = Iolb_symbolic.Polynomial in
  R.make (P.leading_terms (R.num r)) (P.leading_terms (R.den r))

let fig4 () =
  section "FIG4: asymptotic lower bounds (old vs new)";
  pf "%-10s | %-28s | %-36s\n" "kernel" "paper old" "paper new (hourglass)";
  pf "%s\n" (String.make 80 '-');
  List.iter
    (fun k ->
      pf "%-10s | %-28s | %-36s\n" (PF.kernel_name k) (PF.fig4_old k)
        (PF.fig4_new k))
    PF.all_kernels;
  pf "\nEngine-derived formulas (leading terms):\n";
  List.iter
    (fun entry ->
      let a = Report.analyze_cached entry in
      let show tech label =
        match List.find_opt (fun (b : D.t) -> b.technique = tech) a.bounds with
        | None -> ()
        | Some b ->
            pf "%-10s | %-10s | Q >= %s\n" entry.Report.display label
              (R.to_string (leading_term b.formula))
      in
      show D.Classical "classical";
      show D.Hourglass "hourglass")
    Report.registry;
  pf "\nImprovement factor (hourglass / classical) at sample points:\n";
  pf "%-10s | %8s %8s %8s | %10s %10s\n" "kernel" "m" "n" "s" "ratio"
    "M/sqrt(S)";
  List.iter
    (fun entry ->
      let a = Report.analyze_cached entry in
      List.iter
        (fun (m, n, s) ->
          match
            ( Report.eval_best a ~technique:`Hourglass ~m ~n ~s,
              Report.eval_best a ~technique:`Classical ~m ~n ~s )
          with
          | Some hg, Some cl ->
              let scale =
                float_of_int (if m = 0 then n else m) /. sqrt (float_of_int s)
              in
              pf "%-10s | %8d %8d %8d | %10.2f %10.2f\n" entry.Report.display m
                n s (hg /. cl) scale
          | _ -> ())
        (List.filteri (fun i _ -> i < 3) entry.Report.grid))
    Report.registry;
  metric_i "kernels" (List.length Report.registry)

(* ------------------------------------------------------------------ *)
(* Figure 5: full parametric formulas, engine vs paper, numerically.   *)

let fig5 () =
  section "FIG5: full parametric bounds, engine vs paper (ratios)";
  pf
    "(engine/paper ratio; 'neg' marks points where the paper's full formula\n\
    \ is negative because its subleading corrections dominate at small \
     sizes)\n";
  List.iter
    (fun entry ->
      let a = Report.analyze_cached entry in
      pf "\n%s:\n" entry.Report.display;
      pf "  %8s %8s %8s | %12s %12s | %12s %12s\n" "m" "n" "s" "cls engine"
        "cls ratio" "hg engine" "hg ratio";
      List.iter
        (fun (m, n, s) ->
          let fmt_ratio engine paper =
            if paper <= 0. then "neg"
            else Printf.sprintf "%.3f" (engine /. paper)
          in
          let cls = Report.eval_best a ~technique:`Classical ~m ~n ~s in
          let hg = Report.eval_best a ~technique:`Hourglass ~m ~n ~s in
          let cls_paper = PF.eval_at (PF.fig5_old entry.kernel) ~m ~n ~s in
          let hg_paper = PF.eval_at (PF.fig5_new entry.kernel) ~m ~n ~s in
          match (cls, hg) with
          | Some cls, Some hg ->
              pf "  %8d %8d %8d | %12.4g %12s | %12.4g %12s\n" m n s cls
                (fmt_ratio cls cls_paper) hg (fmt_ratio hg hg_paper)
          | _ -> pf "  %8d %8d %8d | (no bound)\n" m n s)
        entry.Report.grid)
    Report.registry

(* ------------------------------------------------------------------ *)
(* Theorem 5 and the Section 5.1 regime analysis for MGS.              *)

let tech_name (b : D.t) =
  match b.technique with
  | D.Classical -> "classical"
  | D.Hourglass -> "hourglass (main)"
  | D.Hourglass_small_s -> "hourglass (small cache)"
  | D.Trivial -> "trivial"

let thm5 () =
  section "THM5: MGS closed forms and regimes (Section 5.1)";
  let a = Report.analyze_cached (Report.find "mgs") in
  let main = List.find (fun (b : D.t) -> b.technique = D.Hourglass) a.bounds in
  let small =
    List.find (fun (b : D.t) -> b.technique = D.Hourglass_small_s) a.bounds
  in
  pf "engine main bound      : Q >= %s\n" (R.to_string main.formula);
  pf "paper Theorem 5 (main) : Q >= %s\n" (R.to_string (PF.theorem_main PF.Mgs));
  pf "exactly equal          : %b\n"
    (R.equal main.formula (PF.theorem_main PF.Mgs));
  pf "engine small-cache     : Q >= %s (valid S <= M)\n"
    (R.to_string small.formula);
  pf "paper Theorem 5 (S<=M) : Q >= %s\n"
    (R.to_string (Option.get (PF.theorem_small PF.Mgs)));
  pf "exactly equal          : %b\n"
    (R.equal small.formula (Option.get (PF.theorem_small PF.Mgs)));
  pf "\nRegimes (M=1024, N=256): bound vs MN^2/8 (S small) and M^2N^2/8S (S large):\n";
  pf "%10s | %12s | %14s | %14s\n" "S" "best bound" "vs MN^2/8" "vs M^2N^2/8S";
  List.iter
    (fun s ->
      let m = 1024 and n = 256 in
      let b = Option.get (Report.eval_best a ~technique:`Hourglass ~m ~n ~s) in
      let small_ref = float_of_int (m * n * n) /. 8. in
      let large_ref =
        float_of_int m *. float_of_int m *. float_of_int n *. float_of_int n
        /. (8. *. float_of_int s)
      in
      pf "%10d | %12.4g | %14.3f | %14.3f\n" s b (b /. small_ref)
        (b /. large_ref))
    [ 64; 256; 512; 2048; 8192; 65536; 524288 ];
  (* The same table read off mechanically: maximal integer ranges of S by
     winning bound.  The paper's hand split is S <= M vs S > M; the
     recovered edge sits at S = M = 1024. *)
  pf "\nwinning-bound regions (M=1024, N=256), S in [1, 8192]:\n";
  let hg_only =
    List.filter
      (fun (b : D.t) ->
        b.technique = D.Hourglass || b.technique = D.Hourglass_small_s)
      a.bounds
  in
  let ranges =
    D.best_regions ~params:[ ("M", 1024); ("N", 256) ] ~lo:1 ~hi:8192 hg_only
  in
  List.iter
    (fun (r : D.winner_range) ->
      let who =
        match r.winner with
        | None -> "(no applicable bound)"
        | Some b -> tech_name b ^ "  (" ^ b.D.validity ^ ")"
      in
      pf "  S in [%6d, %6d]: %s\n" r.s_from r.s_to who)
    ranges;
  metric_i "thm5_regions" (List.length ranges)

(* ------------------------------------------------------------------ *)
(* Theorems 6-8.                                                       *)

let thm_table name kernel =
  let entry = Report.find (PF.kernel_name kernel) in
  let a = Report.analyze_cached entry in
  pf "\n%s (engine best hourglass vs paper theorem):\n" name;
  pf "  %8s %8s %8s | %12s %12s %8s\n" "m" "n" "s" "engine" "paper" "ratio";
  List.iter
    (fun (m, n, s) ->
      match Report.eval_best a ~technique:`Hourglass ~m ~n ~s with
      | None -> ()
      | Some engine ->
          let paper = PF.eval_at (PF.theorem_main kernel) ~m ~n ~s in
          pf "  %8d %8d %8d | %12.4g %12.4g %8.3f\n" m n s engine paper
            (engine /. paper))
    entry.Report.grid

let thm6_7_8 () =
  section "THM6/7/8: Householder A2V, V2Q and GEBD2 closed forms";
  thm_table "Theorem 6 (A2V)" PF.A2v;
  thm_table "Theorem 7 (V2Q)" PF.V2q;
  thm_table "Theorem 8 (GEBD2)" PF.Gebd2

(* ------------------------------------------------------------------ *)
(* Theorem 9: GEHD2 with both loop-split choices.                      *)

(* GEHD2 bounds with the loop split M left symbolic: the registry entry
   finalizes M = N/2 - 1, so the split searches analyze the spec directly.
   Shared and forced once (PREWARM forces it when THM9/REGIMES run). *)
let gehd2_free_bounds =
  lazy (D.analyze ~verify_params:[ ("N", 9); ("M", 3) ] K.Gehd2.split_spec)

let thm9 () =
  section "THM9: GEHD2 (loop split at M = N/2 - 1, and M = N - S - 2)";
  thm_table "Theorem 9 (split at N/2 - 1)" PF.Gehd2;
  (* The second split choice targets N >> S: engine bound with
     M = N - S - 2, compared to the paper's N^3/24. *)
  pf "\nsplit at M = N - S - 2 (regime N >> S), engine vs paper N^3/24:\n";
  pf "  %8s %8s | %12s %12s %8s\n" "n" "s" "engine" "N^3/24" "ratio";
  let module P = Iolb_symbolic.Polynomial in
  let bounds = Lazy.force gehd2_free_bounds in
  List.iter
    (fun (n, s) ->
      let subst_m = P.add (P.var "N") (P.of_int (-s - 2)) in
      let env = function
        | "N" -> float_of_int n
        | "S" -> float_of_int s
        | "sqrtS" -> sqrt (float_of_int s)
        | _ -> raise Not_found
      in
      let best =
        List.filter_map
          (fun (b : D.t) ->
            match b.technique with
            | D.Hourglass ->
                Some (R.eval_float_env env (R.subst "M" subst_m b.formula))
            | _ -> None)
          bounds
        |> List.fold_left Float.max 0.
      in
      let paper = float_of_int (n * n * n) /. 24. in
      pf "  %8d %8d | %12.4g %12.4g %8.3f\n" n s best paper (best /. paper))
    [ (256, 4); (512, 8); (1024, 16); (4096, 32) ];
  (* Automatic split search: the engine picks the split point maximising
     its own symbolic bound, recovering the paper's two hand choices.
     Region-based (Sturm root isolation of the bound's M-derivative): only
     the interval ends and the integers adjacent to derivative roots are
     evaluated, instead of every M in [1, N-3]. *)
  pf "\nautomatic split search (argmax over M of the engine bound, by regions):\n";
  pf "  %8s %8s | %10s %12s | %14s %14s | %7s %5s\n" "n" "s" "best M" "bound"
    "paper N/2-1" "paper N-S-2" "regions" "evals";
  let evaluations = ref 0 and monotone = ref 0 and all_exact = ref true in
  List.iter
    (fun (n, s) ->
      let point_evals = ref 0 and point_regions = ref 0 in
      let best =
        List.fold_left
          (fun acc (b : D.t) ->
            if b.technique <> D.Hourglass then acc
            else
              match
                D.optimize_split_regions ~jobs:!jobs b ~param:"M" ~lo:1
                  ~hi:(n - 3) ~params:[ ("N", n) ] ~s
              with
              | Some r ->
                  point_evals := !point_evals + r.D.evaluated;
                  point_regions := !point_regions + r.D.monotone_regions;
                  if not r.D.exact then all_exact := false;
                  (match acc with
                  | Some (_, v') when v' >= r.D.split_value -> acc
                  | _ -> Some (r.D.split, r.D.split_value))
              | None -> acc)
          None bounds
      in
      evaluations := !evaluations + !point_evals;
      monotone := !monotone + !point_regions;
      match best with
      | Some (m, v) ->
          pf "  %8d %8d | %10d %12.4g | %14d %14d | %7d %5d\n" n s m v
            ((n / 2) - 1)
            (n - s - 2)
            !point_regions !point_evals
      | None -> pf "  %8d %8d | (no bound)\n" n s)
    [ (64, 4); (64, 16); (64, 256); (128, 8); (128, 1024) ];
  pf "all searches symbolic (no enumeration fallback): %b\n" !all_exact;
  metric_i "split_evaluations" !evaluations;
  metric_i "split_monotone_regions" !monotone;
  metric_i "split_exact" (if !all_exact then 1 else 0)

(* ------------------------------------------------------------------ *)
(* Regime decompositions: the parametric sweeps behind THM5 and THM9.  *)

let regimes () =
  section "REGIMES: parametric exponent sweeps and winning-bound regions";
  (* One parametric-simplex sweep per verified hourglass: the regimes of
     the sharpened |I'| LP as W = K^theta runs over [1/2, 1]. *)
  pf "exponent regimes of the sharpened |I'| LP (W = K^theta):\n";
  let total_regions = ref 0 and total_pivots = ref 0 in
  List.iter
    (fun (entry : Report.entry) ->
      let a = Report.analyze_cached entry in
      List.iter
        (fun (h : Hourglass.t) ->
          let dims, projs = D.sharpened_projections entry.Report.program h in
          match Bl.exponent_regions ~dims projs with
          | None -> ()
          | Some rs ->
              let pivots =
                List.fold_left
                  (fun acc (r : Bl.exponent_region) ->
                    acc + r.Bl.region_pivots)
                  0 rs
              in
              total_regions := !total_regions + List.length rs;
              total_pivots := !total_pivots + pivots;
              pf "  %-9s %-5s: %d region(s), %d pivot(s)\n"
                entry.Report.display h.update_stmt (List.length rs) pivots;
              List.iter
                (fun r ->
                  pf "      %s\n" (Format.asprintf "%a" Bl.pp_exponent_region r))
                rs)
        a.Report.hourglasses)
    Report.registry;
  metric_i "theta_regions" !total_regions;
  metric_i "theta_pivots" !total_pivots;
  (* Winning-bound regions over the cache-size axis: Thm 5's hand split
     (S <= M vs larger) and its analogues, read off mechanically. *)
  pf "\nwinning-bound regions over S (at the largest grid point):\n";
  let winner_regions = ref 0 in
  List.iter
    (fun (entry : Report.entry) ->
      let a = Report.analyze_cached entry in
      let m, n, _ =
        List.nth entry.Report.grid (List.length entry.Report.grid - 1)
      in
      let params = if m = 0 then [ ("N", n) ] else [ ("M", m); ("N", n) ] in
      let ranges = D.best_regions ~params ~lo:1 ~hi:4096 a.Report.bounds in
      winner_regions := !winner_regions + List.length ranges;
      pf "  %s (%s):\n" entry.Report.display
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) params));
      List.iter
        (fun (r : D.winner_range) ->
          let who =
            match r.winner with
            | None -> "(no applicable bound)"
            | Some b -> tech_name b
          in
          pf "    S in [%4d, %4d]: %s\n" r.s_from r.s_to who)
        ranges)
    Report.registry;
  metric_i "winner_regions" !winner_regions

(* ------------------------------------------------------------------ *)
(* Appendix A.1: tiled MGS upper bound.                                *)

let pick_block ~m ~n ~s =
  (* The paper's block choice B = floor(S/M) - 1, clamped to a divisor of n
     (the trace generator needs B | N): the largest divisor of n that is
     <= bmax. *)
  let bmax = max 1 ((s / m) - 1) in
  let best = ref 1 in
  for d = 2 to min n bmax do
    if n mod d = 0 then best := d
  done;
  !best

let appendix_a1 () =
  section "APPENDIX A1: tiled MGS, measured I/O vs predicted (1/2) M N^2 / B";
  let mgs_analysis = Report.analyze_cached (Report.find "mgs") in
  pf "%6s %6s %6s %4s | %9s %9s | %10s %10s | %9s | %8s\n" "m" "n" "s" "b"
    "opt loads" "lru loads" "pred reads" "lower bnd" "untiled" "no-spill";
  let grid =
    [
      (16, 8, 40); (16, 8, 80); (16, 8, 160);
      (32, 16, 80); (32, 16, 160); (32, 16, 320);
      (48, 16, 120); (48, 16, 400); (48, 16, 800);
      (64, 32, 150); (64, 32, 600);
    ]
  in
  (* The untiled reference trace depends only on (m, n); build each once,
     with its OPT plan (the S-independent backward next-read scan), and
     share both read-only across the S-sweep. *)
  let shapes = List.sort_uniq compare (List.map (fun (m, n, _) -> (m, n)) grid) in
  let untiled_plans =
    pmap
      (fun (m, n) ->
        ( (m, n),
          Cache.opt_plan
            (Trace.of_program ~params:[ ("M", m); ("N", n) ] K.Mgs.spec) ))
      shapes
  in
  let t0 = now () in
  let rows =
    pmap
      (fun (m, n, s) ->
        let b = pick_block ~m ~n ~s in
        let spec = K.Mgs.tiled_spec ~m ~n ~b in
        let trace = Trace.of_program ~params:[] spec in
        let opt = Cache.opt ~size:s trace in
        (* LRU through the reuse-distance sweep (field-identical to
           [Cache.lru] by the [sweep-lru] oracle); the trace stays
           materialized for the OPT plan either way. *)
        let lru = Sweep.stats (Sweep.run trace) ~size:s in
        (* Predicted dominant read cost (Appendix A.1): (1/2) M N^2 / B for
           streaming the left columns, plus M N for reading the blocks. *)
        let predicted =
          (0.5 *. float_of_int (m * n * n) /. float_of_int b)
          +. float_of_int (m * n)
        in
        let lower =
          Option.get
            (Report.eval_best mgs_analysis ~technique:`Hourglass ~m ~n ~s)
        in
        let untiled_plan = List.assoc (m, n) untiled_plans in
        let untiled = (Cache.opt_run ~size:s untiled_plan).Cache.loads in
        let no_spill = (m + 1) * b < s in
        let row =
          Printf.sprintf "%6d %6d %6d %4d | %9d %9d | %10.0f %10.0f | %9d | %8b"
            m n s b opt.Cache.loads lru.Cache.loads predicted lower untiled
            no_spill
        in
        ( row,
          opt.Cache.accesses + lru.Cache.accesses
          + Trace.length (Cache.opt_plan_trace untiled_plan) ))
      grid
  in
  let dt = now () -. t0 in
  List.iter (fun (row, _) -> pf "%s\n" row) rows;
  let accesses = List.fold_left (fun acc (_, a) -> acc + a) 0 rows in
  metric_i "cache_accesses" accesses;
  if dt > 0. then metric_f "cache_accesses_per_s" (float_of_int accesses /. dt);
  pf
    "\nShape check: tiled loads track (1/2)MN^2/B; the untiled ordering pays\n\
     ~B times more when S >> M; the lower bound stays below both.\n"

(* ------------------------------------------------------------------ *)
(* Appendix A.2: tiled Householder A2V upper bound.                    *)

let appendix_a2 () =
  section
    "APPENDIX A2: tiled A2V, measured I/O vs predicted (M N^2 - N^3/3)/(2B)";
  let a2v_analysis = Report.analyze_cached (Report.find "qr_hh_a2v") in
  pf "%6s %6s %6s %4s | %9s %9s | %10s %10s | %8s\n" "m" "n" "s" "b"
    "opt loads" "lru loads" "pred reads" "lower bnd" "no-spill";
  let grid =
    [
      (16, 8, 40); (16, 8, 80); (16, 8, 160);
      (32, 16, 80); (32, 16, 160); (32, 16, 320);
      (48, 16, 120); (48, 16, 400);
      (64, 32, 150); (64, 32, 600);
    ]
  in
  let t0 = now () in
  let rows =
    pmap
      (fun (m, n, s) ->
        let b = pick_block ~m ~n ~s in
        let spec = K.Householder.tiled_spec ~m ~n ~b in
        let trace = Trace.of_program ~params:[] spec in
        let opt = Cache.opt ~size:s trace in
        let lru = Sweep.stats (Sweep.run trace) ~size:s in
        let predicted =
          (0.5
           *. (float_of_int (m * n * n) -. (float_of_int (n * n * n) /. 3.))
           /. float_of_int b)
          +. (2. *. float_of_int (m * n))
        in
        let lower =
          Option.get
            (Report.eval_best a2v_analysis ~technique:`Hourglass ~m ~n ~s)
        in
        let no_spill = (m + 1) * b < s in
        ( Printf.sprintf "%6d %6d %6d %4d | %9d %9d | %10.0f %10.0f | %8b" m n s
            b opt.Cache.loads lru.Cache.loads predicted lower no_spill,
          opt.Cache.accesses + lru.Cache.accesses ))
      grid
  in
  let dt = now () -. t0 in
  List.iter (fun (row, _) -> pf "%s\n" row) rows;
  let accesses = List.fold_left (fun acc (_, a) -> acc + a) 0 rows in
  metric_i "cache_accesses" accesses;
  if dt > 0. then metric_f "cache_accesses_per_s" (float_of_int accesses /. dt)

(* ------------------------------------------------------------------ *)
(* Validation: derived lower bounds vs pebble-game measured I/O.       *)

let validation () =
  section "VALIDATION: derived bound <= pebble-game loads for valid schedules";
  pf "%-12s %6s %6s %6s | %10s | %9s %9s %9s\n" "kernel" "m" "n" "s" "best LB"
    "program" "random1" "random2";
  let grid =
    [
      ("mgs", [ ("M", 12); ("N", 8) ], 12, 8, [ 12; 16; 32 ]);
      ("qr_hh_a2v", [ ("M", 12); ("N", 8) ], 12, 8, [ 12; 16; 32 ]);
      ("qr_hh_v2q", [ ("M", 12); ("N", 8) ], 12, 8, [ 12; 16; 32 ]);
      ("gebd2", [ ("M", 12); ("N", 8) ], 12, 8, [ 12; 16; 32 ]);
      ("gehd2", [ ("N", 12); ("M", 5) ], 0, 12, [ 12; 16; 32 ]);
    ]
  in
  let t0 = now () in
  (* Per-kernel preparation fans out across the pool: the (memoized)
     symbolic analysis, the CDAG, and one reusable plan per schedule (the
     use-position tables are S-independent). *)
  let prepped =
    pmap
      (fun (name, params, m, n, ss) ->
        let entry = Report.find name in
        let a = Report.analyze_cached entry in
        let cdag = Cdag.of_program ~params entry.Report.program in
        let plans =
          List.map
            (fun schedule -> Game.plan cdag ~schedule)
            [
              Game.program_schedule cdag;
              Game.random_topological ~seed:1 cdag;
              Game.random_topological ~seed:2 cdag;
            ]
        in
        (name, a, Cdag.n_computes cdag, m, n, ss, plans))
      grid
  in
  (* One task per (kernel, schedule): sweep every S with a single
     reusable runner, so each task allocates its per-run state once. *)
  let tasks =
    List.concat_map
      (fun (_, _, _, _, _, ss, plans) ->
        List.map (fun plan -> (ss, plan)) plans)
      prepped
  in
  let swept =
    Array.of_list
      (pmap
         (fun (ss, plan) ->
           let r = Game.runner plan in
           List.map (fun s -> (Game.run_runner r ~s).Game.loads) ss)
         tasks)
  in
  (* Reassemble per-(kernel, S) rows; order is preserved, so the printed
     table is byte-identical to the per-point version. *)
  let rows =
    List.concat
      (List.mapi
         (fun i (name, a, n_computes, m, n, ss, _) ->
           let sweep k = Array.of_list swept.((3 * i) + k) in
           let prog_l = sweep 0 and r1_l = sweep 1 and r2_l = sweep 2 in
           List.mapi
             (fun j s ->
               let prog = prog_l.(j) and r1 = r1_l.(j) and r2 = r2_l.(j) in
               let lb =
                 List.fold_left
                   (fun acc tech ->
                     match Report.eval_best a ~technique:tech ~m ~n ~s with
                     | Some v -> Float.max acc v
                     | None -> acc)
                   0.
                   [ `Classical; `Hourglass ]
               in
               let ok = lb <= float_of_int (min prog (min r1 r2)) +. 1e-9 in
               ( Printf.sprintf "%-12s %6d %6d %6d | %10.1f | %9d %9d %9d %s"
                   name m n s lb prog r1 r2
                   (if ok then "" else "  *** VIOLATION ***"),
                 3 * n_computes,
                 ok ))
             ss)
         prepped)
  in
  let dt = now () -. t0 in
  List.iter (fun (row, _, _) -> pf "%s\n" row) rows;
  let events = List.fold_left (fun acc (_, e, _) -> acc + e) 0 rows in
  let violations =
    List.fold_left (fun acc (_, _, ok) -> if ok then acc else acc + 1) 0 rows
  in
  metric_i "pebble_games" (List.length rows * 3);
  metric_i "pebble_events" events;
  if dt > 0. then metric_f "pebble_events_per_s" (float_of_int events /. dt);
  metric_i "violations" violations

(* ------------------------------------------------------------------ *)
(* Baselines: the classical path across the kernel library.             *)

let baselines () =
  section "BASELINES: classical bounds on the non-hourglass kernels";
  pf "%-10s | %-44s | %s\n" "kernel" "derived bound (leading term)" "sandwich";
  let rows =
    pmap
      (fun (name, prog, verify_params) ->
        let bounds = D.analyze ~verify_params prog in
        match bounds with
        | [] ->
            Printf.sprintf "%-10s | %-44s |" name "(none: matvec/stencil class)"
        | _ ->
            let best =
              List.fold_left
                (fun acc (b : D.t) ->
                  let v =
                    try D.eval b ~params:verify_params ~s:16 with _ -> 0.
                  in
                  match acc with
                  | Some (_, v') when v' >= v -> acc
                  | _ -> Some (b, v))
                None bounds
            in
            let b, _ = Option.get best in
            (* Sandwich at the verification sizes: bound <= pebble loads. *)
            let cdag = Cdag.of_program ~params:verify_params prog in
            let measured =
              (Game.run cdag ~s:16 ~schedule:(Game.program_schedule cdag))
                .Game.loads
            in
            let lb = D.eval b ~params:verify_params ~s:16 in
            Printf.sprintf "%-10s | %-44s | LB %.1f <= %d %s" name
              (R.to_string (leading_term b.formula))
              lb measured
              (if lb <= float_of_int measured then "ok" else "VIOLATION"))
      Report.baselines
  in
  List.iter (fun row -> pf "%s\n" row) rows;
  metric_i "kernels" (List.length rows)

(* ------------------------------------------------------------------ *)
(* Tightness: symbolic upper-bound models vs the lower bounds.          *)

let upper_bounds () =
  section "UPPER_BOUNDS: tiled-ordering cost models vs lower bounds (tightness)";
  let module UB = Iolb.Upper_bounds in
  let module P = Iolb_symbolic.Polynomial in
  let s = P.var "S" and m = P.var "M" in
  pf "symbolic totals at the paper's block choice B = S/M - 1:\n";
  let upper_mgs =
    UB.substitute_block (UB.total UB.mgs_tiled) ~num:(P.sub s m) ~den:m
  in
  let upper_a2v =
    UB.substitute_block (UB.total UB.a2v_tiled) ~num:(P.sub s m) ~den:m
  in
  pf "  tiled MGS : %s\n" (R.to_string upper_mgs);
  pf "  tiled A2V : %s\n" (R.to_string upper_a2v);
  pf "\nupper/lower gap along M = 4t, N = t, S = 4t^2 (M << S regime):\n";
  pf "  %8s | %12s %12s | %8s %8s\n" "t" "UB mgs" "LB mgs" "gap mgs" "gap a2v";
  List.iter
    (fun t ->
      let params = [ ("M", 4 * t); ("N", t); ("S", 4 * t * t) ] in
      let lb_mgs = PF.theorem_main PF.Mgs and lb_a2v = PF.theorem_main PF.A2v in
      let ub v = Iolb.Upper_bounds.gap ~upper:v ~lower:(R.of_int 1) params in
      let gap_mgs = Iolb.Upper_bounds.gap ~upper:upper_mgs ~lower:lb_mgs params in
      let gap_a2v = Iolb.Upper_bounds.gap ~upper:upper_a2v ~lower:lb_a2v params in
      pf "  %8d | %12.4g %12.4g | %8.2f %8.2f\n" t (ub upper_mgs)
        (ub upper_mgs /. gap_mgs) gap_mgs gap_a2v)
    [ 64; 128; 256; 512; 1024 ];
  pf
    "(a stable finite gap = the hourglass bounds are asymptotically tight,\n\
    \ the paper's optimality claim; the constant reflects the block-load\n\
    \ and write terms the leading-term analysis drops)\n"

(* ------------------------------------------------------------------ *)
(* Schedules: the pebble-game I/O of increasingly clever schedules      *)
(* approaches the hourglass bound from above.                           *)

let schedules () =
  section "SCHEDULES: pebble-game I/O vs the bound (MGS 16x10)";
  let m = 16 and n = 10 in
  let entry = Report.find "mgs" in
  let a = Report.analyze_cached entry in
  let cdag = Cdag.of_program ~params:[ ("M", m); ("N", n) ] entry.Report.program in
  let blocked b ~stmt ~vec =
    match (stmt, vec) with
    | ("SR" | "SU"), [| k; j; _ |] -> (j / b * 10000) + (k * 100) + j
    | "Sr0", [| k; j |] -> (j / b * 10000) + (k * 100) + j
    | _, [| k |] -> (k / b * 10000) + (k * 100)
    | _, [| k; _ |] -> (k / b * 10000) + (k * 100)
    | _ -> 0
  in
  pf "%6s | %9s %9s %9s %9s | %9s\n" "S" "program" "random" "blocked2"
    "blocked4" "best LB";
  (* Four plans built once; each schedule's S-column is one pool task
     with a private reusable runner. *)
  let plans =
    List.map
      (fun schedule -> Game.plan cdag ~schedule)
      [
        Game.program_schedule cdag;
        Game.random_topological ~seed:3 cdag;
        Game.priority_topological cdag ~priority:(blocked 2);
        Game.priority_topological cdag ~priority:(blocked 4);
      ]
  in
  let ss = [ 20; 32; 48; 64; 96; 128; 176 ] in
  let t0 = now () in
  (* One task per schedule, sweeping the whole S column with one reusable
     runner; the rows are then transposed back together. *)
  let swept =
    Array.of_list
      (pmap
         (fun plan ->
           let r = Game.runner plan in
           Array.of_list
             (List.map (fun s -> (Game.run_runner r ~s).Game.loads) ss))
         plans)
  in
  let rows =
    List.mapi
      (fun j s ->
        let prog = swept.(0).(j)
        and rand = swept.(1).(j)
        and b2 = swept.(2).(j)
        and b4 = swept.(3).(j) in
        let lb =
          List.fold_left
            (fun acc tech ->
              match Report.eval_best a ~technique:tech ~m ~n ~s with
              | Some v -> Float.max acc v
              | None -> acc)
            0.
            [ `Classical; `Hourglass ]
        in
        Printf.sprintf "%6d | %9d %9d %9d %9d | %9.1f" s prog rand b2 b4 lb)
      ss
  in
  let dt = now () -. t0 in
  List.iter (fun row -> pf "%s\n" row) rows;
  let events = List.length ss * 4 * Cdag.n_computes cdag in
  metric_i "pebble_events" events;
  if dt > 0. then metric_f "pebble_events_per_s" (float_of_int events /. dt)

(* ------------------------------------------------------------------ *)
(* Ablation 1: version pinning in the projection derivation.           *)

let ablation_pinning () =
  section "ABLATION: version pinning in Phi (classical exponent rho)";
  pf "%-12s %-6s | %-12s %-12s\n" "kernel" "stmt" "rho pinned" "rho raw";
  let interesting = [ "SU"; "SU1a"; "BUl"; "SC" ] in
  List.iter
    (fun (entry : Report.entry) ->
      List.iter
        (fun (i : Program.stmt_info) ->
          if List.mem i.def.name interesting then begin
            let rho pin =
              let phis = Phi.of_statement ~version_pinning:pin entry.program i in
              match
                Bl.classical ~dims:i.dims
                  (List.map (fun (p : Phi.t) -> p.dims) phis)
              with
              | Some sol -> Iolb_util.Rat.to_string sol.Bl.k_exponent
              | None -> "unbounded"
            in
            pf "%-12s %-6s | %-12s %-12s\n" entry.display i.def.name (rho true)
              (rho false)
          end)
        (Program.statements entry.program))
    Report.registry;
  pf "(a larger rho is a weaker bound: K^rho bounds the K-bounded set size)\n"

(* ------------------------------------------------------------------ *)
(* Ablation 1b: the Brascamp-Lieb certificate choice for I'.            *)

let ablation_certificate () =
  section "ABLATION: Brascamp-Lieb certificate for |I'| (MGS)";
  pf
    "Three admissible certificates bound the spanning part I' of a K-bounded\n\
     set (K = 2S, W = M):\n\
    \  (a) hourglass, theta=1/2-first : |I'| <= K^2/W   (the paper's choice)\n\
    \  (b) hourglass, theta=1 only    : |I'| <= K*W\n\
    \  (c) Loomis-Whitney (classical) : |I'| <= K^(3/2)\n";
  pf "%8s %8s | %12s %12s %12s | %s\n" "M" "S" "K^2/W" "K*W" "K^1.5" "tightest";
  List.iter
    (fun (m, s) ->
      let k = float_of_int (2 * s) and w = float_of_int m in
      let a = k *. k /. w and b = k *. w and c = k ** 1.5 in
      let best = if a <= b && a <= c then "a" else if b <= c then "b" else "c" in
      pf "%8d %8d | %12.4g %12.4g %12.4g | %s\n" m s a b c best)
    [
      (64, 16); (64, 256); (64, 4096);
      (1024, 256); (1024, 65536); (1024, 1048576);
    ];
  pf
    "(K^2/W wins whenever W^2 >= K, i.e. S <= M^2/2 - every practical case,\n\
    \ since beyond that the whole matrix fits in cache; the lex objective\n\
    \ theta=1/2-then-1 picks it automatically)\n"

(* ------------------------------------------------------------------ *)
(* Ablation 2: replacement policy on the tiled MGS trace.              *)

let ablation_policy () =
  section "ABLATION: OPT vs LRU vs cold on tiled MGS";
  let m = 32 and n = 16 and b = 4 in
  let spec = K.Mgs.tiled_spec ~m ~n ~b in
  let trace = Trace.of_program ~params:[] spec in
  pf "m=%d n=%d b=%d, trace length %d, footprint %d\n" m n b
    (Trace.length trace) (Trace.footprint trace);
  pf "%8s | %9s %9s %9s\n" "S" "opt" "lru" "cold";
  let cold = (Cache.cold trace).Cache.loads in
  let ss = [ 40; 80; 160; 320; 640 ] in
  let t0 = now () in
  (* One LRU sweep pass and one OPT plan answer the whole size column; the
     per-size OPT forward runs fan out over the pool sharing the plan. *)
  let lru_all = Sweep.lru_stats trace ~sizes:ss in
  let plan = Cache.opt_plan trace in
  let rows =
    pmap
      (fun s ->
        let opt = (Cache.opt_run ~size:s plan).Cache.loads in
        let lru = (List.assoc s lru_all).Cache.loads in
        Printf.sprintf "%8d | %9d %9d %9d" s opt lru cold)
      ss
  in
  let dt = now () -. t0 in
  List.iter (fun row -> pf "%s\n" row) rows;
  let accesses = (2 * List.length ss * Trace.length trace) + Trace.length trace in
  metric_i "cache_accesses" accesses;
  if dt > 0. then metric_f "cache_accesses_per_s" (float_of_int accesses /. dt)

(* ------------------------------------------------------------------ *)
(* Sweep engine: one stack-distance pass vs per-size LRU simulation,   *)
(* at a problem size the per-size loop makes painful.                  *)

let sweep_engine () =
  section "SWEEP: single-pass reuse-distance engine vs per-size LRU";
  (* A paper-scale tiled MGS trace, an order of magnitude beyond the
     ablation's: the regime the single-pass engine exists for. *)
  let m = 96 and n = 48 and b = 8 in
  let trace = Trace.of_program ~params:[] (K.Mgs.tiled_spec ~m ~n ~b) in
  let sizes =
    [ 64; 96; 128; 192; 256; 384; 512; 768; 1024; 1536; 2048; 3072; 4096 ]
  in
  pf "tiled MGS m=%d n=%d b=%d: trace length %d, footprint %d, %d sizes\n" m n
    b (Trace.length trace) (Trace.footprint trace) (List.length sizes);
  let t0 = now () in
  let sw = Sweep.run trace in
  let t_sweep = now () -. t0 in
  let t1 = now () in
  (* The reference: one full LRU simulation per size (the pre-sweep cost
     of this table), fanned across the pool. *)
  let per_size = pmap (fun s -> (s, Cache.lru ~size:s trace)) sizes in
  let t_per_size = now () -. t1 in
  pf "%8s | %9s %9s %9s | %s\n" "S" "loads" "hits" "stores" "= per-S sim";
  let mismatches = ref 0 in
  List.iter
    (fun (s, (ref_stats : Cache.stats)) ->
      let sws = Sweep.stats sw ~size:s in
      let same = sws = ref_stats in
      if not same then incr mismatches;
      pf "%8d | %9d %9d %9d | %b\n" s sws.Cache.loads sws.Cache.read_hits
        sws.Cache.stores same)
    per_size;
  pf "(wall times and the sweep/per-size speedup are in the --json metrics)\n";
  metric_i "trace_events" (Trace.length trace);
  metric_i "sizes" (List.length sizes);
  metric_i "mismatches" !mismatches;
  metric_f "sweep_wall_s" t_sweep;
  metric_f "per_size_wall_s" t_per_size;
  if t_sweep > 0. then metric_f "speedup" (t_per_size /. t_sweep)

(* ------------------------------------------------------------------ *)
(* Sweep at scale: the sharded streaming sweep and the SHARDS-sampled  *)
(* sweep on the Appendix A.1 (MGS) workload, at sizes the in-memory    *)
(* engine cannot touch.  IOLB_SWEEP_SCALE picks the tier: unset keeps  *)
(* the run small enough for any local invocation, "ci" streams a       *)
(* ~100M-access trace, "full" a ~1B-access one.  All timing-dependent  *)
(* numbers go to --json only, so stdout within a tier stays            *)
(* byte-identical across runs and across --jobs.                       *)

let sweep_scale () =
  section "SWEEP_SCALE: sharded streaming + sampled sweeps (A1 workload)";
  let tier =
    match Sys.getenv_opt "IOLB_SWEEP_SCALE" with
    | None | Some "" | Some "default" -> `Default
    | Some "ci" -> `Ci
    | Some "full" -> `Full
    | Some other ->
        Printf.eprintf
          "bench: unknown IOLB_SWEEP_SCALE %S (expected default, ci or full)\n"
          other;
        exit 2
  in
  (* Exact tier: the sharded streaming sweep must reproduce the
     sequential sweep field by field at the configured worker count. *)
  let em = 120 and en = 60 in
  let eparams = [ ("M", em); ("N", en) ] in
  let e_accesses = Program.n_accesses ~params:eparams K.Mgs.spec in
  let t0 = now () in
  let seq = Sweep.run_program ~jobs:1 ~params:eparams K.Mgs.spec in
  let t_seq = now () -. t0 in
  let t1 = now () in
  let shd = Sweep.run_program ~jobs:!jobs ~params:eparams K.Mgs.spec in
  let t_shd = now () -. t1 in
  let same =
    Sweep.footprint seq = Sweep.footprint shd
    && Sweep.accesses seq = Sweep.accesses shd
    && Sweep.distance_histogram seq = Sweep.distance_histogram shd
    && List.for_all
         (fun s -> Sweep.stats seq ~size:s = Sweep.stats shd ~size:s)
         [ 2; 64; 1024; 4096; Sweep.footprint seq + 1 ]
  in
  pf "exact streaming sweep: MGS M=%d N=%d, %d accesses, footprint %d\n" em en
    e_accesses (Sweep.footprint seq);
  pf "sharded = sequential (every field): %b\n" same;
  metric_i "exact_accesses" e_accesses;
  metric_i "exact_identical" (if same then 1 else 0);
  metric_f "exact_seq_wall_s" t_seq;
  metric_f "exact_sharded_wall_s" t_shd;
  if t_shd > 0. then
    metric_f "exact_accesses_per_s" (float_of_int e_accesses /. t_shd);
  (* With >= 2 workers the sharded sweep must not lose to the sequential
     one (25% slack absorbs timer noise on loaded hosts).  A 0 here is the
     regression that domain oversubscription used to cause; the warning
     goes to stderr so stdout stays byte-identical across --jobs. *)
  if !jobs >= 2 then begin
    let not_slower = t_shd <= t_seq *. 1.25 in
    metric_i "exact_sharded_not_slower" (if not_slower then 1 else 0);
    if not not_slower then
      Printf.eprintf
        "bench: SWEEP_SCALE sharded sweep slower than sequential (%.4fs vs \
         %.4fs at --jobs %d)\n"
        t_shd t_seq !jobs
  end;
  (* Sampled tier: one scan, union + 8 group sub-samples, error bars. *)
  let (sm, sn), rate =
    match tier with
    | `Default -> ((120, 60), 0.05)
    | `Ci -> ((512, 256), 0.001)
    | `Full -> ((1000, 500), 0.001)
  in
  let sparams = [ ("M", sm); ("N", sn) ] in
  let s_accesses = Program.n_accesses ~params:sparams K.Mgs.spec in
  pf "\nsampled sweep: MGS M=%d N=%d, %d accesses, rate %g, seed 42\n" sm sn
    s_accesses rate;
  Gc.compact ();
  let t2 = now () in
  let smp = Sweep.run_sampled ~rate ~seed:42 ~params:sparams K.Mgs.spec in
  let t_smp = now () -. t2 in
  pf "kept %d accesses; sampled footprint %d; degenerate error bars: %b\n"
    (Sweep.sampled_kept_accesses smp)
    (Sweep.footprint (Sweep.sampled_union smp))
    (Sweep.sampled_degenerate smp);
  (* Loads against the asymptotic untiled prediction (1/2) M^2 N^2 / S:
     the large-size empirical validation of the A1 regime analysis. *)
  pf "%10s | %14s %14s %14s | %12s\n" "S" "loads est" "CI lo" "CI hi"
    "M^2N^2/2S";
  List.iter
    (fun s ->
      let l, _, _ = Sweep.sampled_stats smp ~size:s in
      let pred =
        float_of_int sm *. float_of_int sm *. float_of_int sn
        *. float_of_int sn
        /. (2. *. float_of_int s)
      in
      pf "%10d | %14.5g %14.5g %14.5g | %12.5g\n" s l.Sweep.est l.Sweep.lo
        l.Sweep.hi pred)
    [ sm; 4 * sm; sm * sn / 4; sm * sn ];
  metric_i "sampled_accesses" s_accesses;
  metric_i "kept_accesses" (Sweep.sampled_kept_accesses smp);
  metric_f "sample_rate" rate;
  metric_f "sampled_wall_s" t_smp;
  if t_smp > 0. then
    metric_f "sampled_accesses_per_s_effective"
      (float_of_int s_accesses /. t_smp);
  metric_i "peak_rss_kb" (peak_rss_kb ())

(* ------------------------------------------------------------------ *)
(* Bechamel timings of the pipeline.                                   *)

(* Run a list of Bechamel tests; every estimate lands in the --json
   metrics as [ns_per_run[<name>]].  With [~print:false] nothing is
   written to stdout, so sections using it stay byte-stable run to run. *)
let bechamel_run ~print tests =
  let open Bechamel in
  let open Toolkit in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let stats = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              if print then pf "%-42s %12.0f ns/run\n" name est;
              metric_f (Printf.sprintf "ns_per_run[%s]" name) est
          | _ -> if print then pf "%-42s (no estimate)\n" name)
        stats)
    tests

let timings () =
  section "TIMINGS: Bechamel micro-benchmarks of the pipeline";
  let open Bechamel in
  let module Iset = Iolb_poly.Iset in
  let module Deps = Iolb_ir.Deps in
  let mgs_params = [ ("M", 16); ("N", 8) ] in
  let cdag = Cdag.of_program ~params:mgs_params K.Mgs.spec in
  let schedule = Game.program_schedule cdag in
  let trace = Trace.of_program ~params:[] (K.Mgs.tiled_spec ~m:16 ~n:8 ~b:2) in
  let a = Matrix.random 32 16 in
  let su_domain = Program.domain (Program.find_stmt K.Mgs.spec "SU") in
  let hg = List.hd (Hourglass.detect K.Mgs.spec) in
  let tests =
    [
      Test.make ~name:"derive: mgs hourglass + classical"
        (Staged.stage (fun () ->
             ignore
               (D.analyze ~verify_params:[ ("M", 6); ("N", 4) ] K.Mgs.spec)));
      Test.make ~name:"detect: hourglass candidates (5 kernels)"
        (Staged.stage (fun () ->
             List.iter
               (fun (e : Report.entry) -> ignore (Hourglass.detect e.program))
               Report.registry));
      Test.make ~name:"cdag: build mgs 16x8"
        (Staged.stage (fun () ->
             ignore (Cdag.of_program ~params:mgs_params K.Mgs.spec)));
      Test.make ~name:"pebble: game mgs 16x8, S=24"
        (Staged.stage (fun () -> ignore (Game.run cdag ~s:24 ~schedule)));
      Test.make ~name:"cache: OPT on tiled mgs trace"
        (Staged.stage (fun () -> ignore (Cache.opt ~size:64 trace)));
      Test.make ~name:"kernel: mgs factor 32x16"
        (Staged.stage (fun () -> ignore (K.Mgs.factor a)));
      Test.make ~name:"iset: enumerate mgs SU domain 16x8"
        (Staged.stage (fun () ->
             ignore (Iset.enumerate ~params:mgs_params su_domain)));
      Test.make ~name:"iset: cardinal mgs SU domain 64x32"
        (Staged.stage (fun () ->
             ignore
               (Iset.cardinal ~params:[ ("M", 64); ("N", 32) ] su_domain)));
      Test.make ~name:"deps: between SU->SR (mgs)"
        (Staged.stage (fun () ->
             ignore (Deps.between K.Mgs.spec ~writer:"SU" ~reader:"SR")));
      Test.make ~name:"hourglass: verify mgs 6x4"
        (Staged.stage (fun () ->
             let cdag = Cdag.of_program ~params:[ ("M", 6); ("N", 4) ] K.Mgs.spec in
             ignore (Hourglass.verify cdag K.Mgs.spec hg)));
    ]
  in
  bechamel_run ~print:true tests

(* ------------------------------------------------------------------ *)
(* Derivation-path microbenchmarks: the symbolic pipeline the compiled *)
(* polyhedral representation accelerates.  Stdout carries only the     *)
(* (deterministic) results each benchmarked call computes; the ns/run  *)
(* figures land in the --json metrics, so this section is byte-stable  *)
(* run to run and across --jobs.                                       *)

let derive_bench () =
  section "DERIVE: derivation-path results and microbenchmarks";
  let open Bechamel in
  let module Iset = Iolb_poly.Iset in
  let module Deps = Iolb_ir.Deps in
  let verify_params = [ ("M", 6); ("N", 4) ] in
  let tech = function
    | D.Classical -> "classical"
    | D.Hourglass -> "hourglass"
    | D.Hourglass_small_s -> "hourglass (small cache)"
    | D.Trivial -> "trivial"
  in
  let bounds = D.analyze ~verify_params K.Mgs.spec in
  pf "analyze mgs (fresh, no memo): %d bounds\n" (List.length bounds);
  List.iter
    (fun (b : D.t) ->
      pf "  [%s/%s] Q >= %s\n" b.stmt (tech b.technique)
        (R.to_string (leading_term b.formula)))
    bounds;
  let rels = Deps.between K.Mgs.spec ~writer:"SU" ~reader:"SR" in
  pf "deps SU -> SR (mgs): %d relation(s)\n" (List.length rels);
  let su = Program.find_stmt K.Mgs.spec "SU" in
  let dom = Program.domain su in
  let p16 = [ ("M", 16); ("N", 8) ] and p64 = [ ("M", 64); ("N", 32) ] in
  pf "enumerate domain(SU) at M=16 N=8: %d points\n"
    (List.length (Iset.enumerate ~params:p16 dom));
  pf "cardinal  domain(SU) at M=64 N=32: %d\n" (Iset.cardinal ~params:p64 dom);
  pf "is_empty  domain(SU) at M=64 N=32: %b\n" (Iset.is_empty ~params:p64 dom);
  let hgs = Hourglass.detect K.Mgs.spec in
  let verify_cdag = Cdag.of_program ~params:verify_params K.Mgs.spec in
  let verified =
    List.length (List.filter (Hourglass.verify verify_cdag K.Mgs.spec) hgs)
  in
  pf "hourglass verify at M=6 N=4: %d/%d verified\n" verified (List.length hgs);
  pf "(ns/run figures are in the --json metrics)\n";
  let hg = List.hd hgs in
  bechamel_run ~print:false
    [
      Test.make ~name:"derive: analyze mgs (fresh)"
        (Staged.stage (fun () ->
             ignore (D.analyze ~verify_params K.Mgs.spec)));
      Test.make ~name:"derive: classical deepest (5 kernels)"
        (Staged.stage (fun () ->
             List.iter
               (fun (e : Report.entry) ->
                 ignore (D.classical_deepest e.program))
               Report.registry));
      Test.make ~name:"deps: between SU->SR (mgs)"
        (Staged.stage (fun () ->
             ignore (Deps.between K.Mgs.spec ~writer:"SU" ~reader:"SR")));
      Test.make ~name:"iset: enumerate SU domain 16x8"
        (Staged.stage (fun () -> ignore (Iset.enumerate ~params:p16 dom)));
      Test.make ~name:"iset: cardinal SU domain 64x32"
        (Staged.stage (fun () -> ignore (Iset.cardinal ~params:p64 dom)));
      Test.make ~name:"iset: is_empty SU domain 64x32"
        (Staged.stage (fun () -> ignore (Iset.is_empty ~params:p64 dom)));
      Test.make ~name:"hourglass: verify mgs 6x4"
        (Staged.stage (fun () ->
             let cdag = Cdag.of_program ~params:verify_params K.Mgs.spec in
             ignore (Hourglass.verify cdag K.Mgs.spec hg)));
    ]

(* ------------------------------------------------------------------ *)
(* Harness: argument parsing, section timing, JSON report.             *)

type section_record = {
  rec_name : string;
  rec_wall_s : float;
  rec_jobs : int;
  rec_peak_rss_kb : int;
  rec_metrics : (string * Json.t) list;
}

(* Sections that consume registry analyses; running any of them warms the
   memo table with one pool fan-out so the per-section cost is lookup. *)
let analysis_sections =
  [
    "FIG4"; "FIG5"; "THM5"; "THM6_7_8"; "THM9"; "REGIMES"; "APPENDIX_A1";
    "APPENDIX_A2"; "VALIDATION"; "SCHEDULES";
  ]

let usage () =
  prerr_endline
    "usage: bench [SECTION ...] [--jobs N] [--json PATH] [--compare OLD.json]\n\
     sections default to all; see the source for names (FIG4, VALIDATION, ...)";
  exit 2

(* [--compare]: per-section wall-time deltas against a prior --json
   baseline, with a regression gate.  A section regresses when it is both
   >25% and >50 ms slower than the baseline; only sections present in both
   runs are compared.  The microbenchmark metrics ([ns_per_run[...]],
   from TIMINGS and DERIVE) are gated the same way with a 50 us absolute
   floor, so derive-path slowdowns fail the gate even when section wall
   time hides them.  [*_per_s] metrics are higher-is-better and regress
   on a >25% drop.  Reporting goes to stderr so stdout stays
   byte-identical across runs.  Returns the number of regressions. *)
let compare_against ~path records =
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "bench: --compare %s: %s\n" path m;
        exit 2)
      fmt
  in
  let doc =
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | contents -> (
        match Json.of_string contents with
        | Ok doc -> doc
        | Error m -> fail "parse error %s" m)
    | exception Sys_error m -> fail "%s" m
  in
  (* v1 baselines lack the per-section jobs/peak_rss_kb fields added in
     v2; neither is compared, so both versions are accepted. *)
  (match Json.member "schema_version" doc with
  | Some (Json.Int (1 | 2)) -> ()
  | Some v -> fail "unsupported schema_version %s" (Json.to_string v)
  | None -> fail "missing schema_version");
  let old_sections =
    match Json.member "sections" doc with
    | Some (Json.List l) ->
        List.filter_map
          (fun s ->
            match (Json.member "name" s, Json.member "wall_s" s) with
            | Some (Json.String name), Some (Json.Float w) -> Some (name, w)
            | Some (Json.String name), Some (Json.Int w) ->
                Some (name, float_of_int w)
            | _ -> None)
          l
    | _ -> fail "missing sections list"
  in
  let old_metrics =
    match Json.member "sections" doc with
    | Some (Json.List l) ->
        List.filter_map
          (fun s ->
            match (Json.member "name" s, Json.member "metrics" s) with
            | Some (Json.String name), Some (Json.Obj kvs) ->
                Some
                  ( name,
                    List.filter_map
                      (fun (k, v) ->
                        match v with
                        | Json.Float f -> Some (k, f)
                        | Json.Int i -> Some (k, float_of_int i)
                        | _ -> None)
                      kvs )
            | _ -> None)
          l
    | _ -> []
  in
  let regressions = ref 0 in
  Printf.eprintf "\n--compare %s (old -> new, threshold +25%% and +50 ms):\n"
    path;
  Printf.eprintf "%-22s %10s %10s %9s\n" "section" "old (s)" "new (s)" "delta";
  List.iter
    (fun r ->
      match List.assoc_opt r.rec_name old_sections with
      | None ->
          (* a section the baseline predates cannot regress; note it so
             the skip is visible rather than silent *)
          Printf.eprintf "%-22s %10s %10.4f %9s  (new, skipped)\n" r.rec_name
            "-" r.rec_wall_s "-"
      | Some old_w ->
          let new_w = r.rec_wall_s in
          let delta_pct =
            if old_w > 0. then (new_w -. old_w) /. old_w *. 100. else 0.
          in
          let regressed =
            new_w > old_w *. 1.25 && new_w -. old_w > 0.05
          in
          if regressed then incr regressions;
          Printf.eprintf "%-22s %10.4f %10.4f %+8.1f%%%s\n" r.rec_name old_w
            new_w delta_pct
            (if regressed then "  REGRESSION" else ""))
    (List.rev records);
  (* Microbenchmark gate: each ns_per_run metric present in both runs
     regresses when it is both >25% and >50 us slower.  The absolute floor
     keeps sub-10 us entries (pure noise at this resolution) out of the
     gate while the ~1 ms derive/cdag path entries stay fully covered. *)
  let is_ns_metric k =
    String.length k >= 10 && String.sub k 0 10 = "ns_per_run"
  in
  let ns_rows =
    List.concat_map
      (fun r ->
        match List.assoc_opt r.rec_name old_metrics with
        | None -> []
        | Some old_ms ->
            List.filter_map
              (fun (k, v) ->
                if not (is_ns_metric k) then None
                else
                  match (v, List.assoc_opt k old_ms) with
                  | Json.Float new_ns, Some old_ns ->
                      Some (k, old_ns, new_ns)
                  | Json.Int i, Some old_ns ->
                      Some (k, old_ns, float_of_int i)
                  | _ -> None)
              r.rec_metrics)
      (List.rev records)
  in
  if ns_rows <> [] then begin
    Printf.eprintf
      "\nmicrobenchmarks (old -> new, threshold +25%% and +50 us):\n";
    Printf.eprintf "%-46s %12s %12s %9s\n" "metric" "old (ns)" "new (ns)"
      "delta";
    List.iter
      (fun (k, old_ns, new_ns) ->
        let delta_pct =
          if old_ns > 0. then (new_ns -. old_ns) /. old_ns *. 100. else 0.
        in
        let regressed =
          new_ns > old_ns *. 1.25 && new_ns -. old_ns > 50_000.
        in
        if regressed then incr regressions;
        Printf.eprintf "%-46s %12.0f %12.0f %+8.1f%%%s\n" k old_ns new_ns
          delta_pct
          (if regressed then "  REGRESSION" else ""))
      ns_rows
  end;
  (* Throughput gate: [*_per_s] metrics are higher-is-better; one present
     in both runs regresses when it drops by more than 25%.  This is what
     catches an engine that got slower while its section's wall time is
     dominated by other work. *)
  let is_throughput_metric k =
    let n = String.length k in
    n >= 6 && String.sub k (n - 6) 6 = "_per_s"
  in
  let thr_rows =
    List.concat_map
      (fun r ->
        match List.assoc_opt r.rec_name old_metrics with
        | None -> []
        | Some old_ms ->
            List.filter_map
              (fun (k, v) ->
                if not (is_throughput_metric k) then None
                else
                  match (v, List.assoc_opt k old_ms) with
                  | Json.Float new_t, Some old_t ->
                      Some (r.rec_name ^ "." ^ k, old_t, new_t)
                  | Json.Int i, Some old_t ->
                      Some (r.rec_name ^ "." ^ k, old_t, float_of_int i)
                  | _ -> None)
              r.rec_metrics)
      (List.rev records)
  in
  if thr_rows <> [] then begin
    Printf.eprintf
      "\nthroughputs (old -> new, higher is better, threshold -25%%):\n";
    Printf.eprintf "%-46s %12s %12s %9s\n" "metric" "old (/s)" "new (/s)"
      "delta";
    List.iter
      (fun (k, old_t, new_t) ->
        let delta_pct =
          if old_t > 0. then (new_t -. old_t) /. old_t *. 100. else 0.
        in
        let regressed = old_t > 0. && new_t < old_t *. 0.75 in
        if regressed then incr regressions;
        Printf.eprintf "%-46s %12.3g %12.3g %+8.1f%%%s\n" k old_t new_t
          delta_pct
          (if regressed then "  REGRESSION" else ""))
      thr_rows
  end;
  if !regressions > 0 then
    Printf.eprintf
      "bench: %d regression(s) (wall-time, ns_per_run or throughput)\n"
      !regressions
  else Printf.eprintf "bench: no regressions\n";
  !regressions

let () =
  let sections =
    [
      ("FIG4", fig4);
      ("FIG5", fig5);
      ("THM5", thm5);
      ("THM6_7_8", thm6_7_8);
      ("THM9", thm9);
      ("REGIMES", regimes);
      ("APPENDIX_A1", appendix_a1);
      ("APPENDIX_A2", appendix_a2);
      ("VALIDATION", validation);
      ("SCHEDULES", schedules);
      ("UPPER_BOUNDS", upper_bounds);
      ("BASELINES", baselines);
      ("ABLATION_PINNING", ablation_pinning);
      ("ABLATION_CERTIFICATE", ablation_certificate);
      ("ABLATION_POLICY", ablation_policy);
      ("SWEEP", sweep_engine);
      ("SWEEP_SCALE", sweep_scale);
      ("DERIVE", derive_bench);
      ("TIMINGS", timings);
    ]
  in
  let rec parse chosen json jobs_opt cmp = function
    | [] -> (List.rev chosen, json, jobs_opt, cmp)
    | "--json" :: path :: rest -> parse chosen (Some path) jobs_opt cmp rest
    | "--compare" :: path :: rest -> parse chosen json jobs_opt (Some path) rest
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 -> parse chosen json (Some j) cmp rest
        | _ ->
            Printf.eprintf "bench: --jobs expects a positive integer, got %S\n" n;
            exit 2)
    | ("--json" | "--jobs" | "--compare") :: [] -> usage ()
    | name :: rest ->
        if List.mem_assoc name sections then
          parse (name :: chosen) json jobs_opt cmp rest
        else begin
          Printf.eprintf "bench: unknown section %S\n" name;
          usage ()
        end
  in
  let chosen, json_path, jobs_opt, compare_path =
    parse [] None None None (List.tl (Array.to_list Sys.argv))
  in
  jobs := (match jobs_opt with Some j -> j | None -> Pool.default_jobs ());
  let chosen = match chosen with [] -> List.map fst sections | c -> c in
  let records = ref [] in
  let record name f =
    current_metrics := [];
    let t0 = now () in
    f ();
    let wall = now () -. t0 in
    records :=
      {
        rec_name = name;
        rec_wall_s = wall;
        rec_jobs = !jobs;
        rec_peak_rss_kb = peak_rss_kb ();
        rec_metrics = List.rev !current_metrics;
      }
      :: !records
  in
  let t_start = now () in
  (* Warm the analysis memo across the pool before the first consumer. *)
  if List.exists (fun name -> List.mem name analysis_sections) chosen then
    record "PREWARM" (fun () ->
        let analyses = Report.analyze_all ~jobs:!jobs () in
        (* THM9's split searches need the un-finalized GEHD2 analysis (the
           registry entry pins M); warm it here so the section times only
           the searches themselves. *)
        if List.mem "THM9" chosen then ignore (Lazy.force gehd2_free_bounds);
        metric_i "analyses" (List.length analyses));
  List.iter
    (fun (name, f) -> if List.mem name chosen then record name f)
    sections;
  let total = now () -. t_start in
  (match json_path with
  | None -> ()
  | Some path ->
      let report =
        Json.Obj
          [
            ("schema_version", Json.Int 2);
            ("generator", Json.String "iolb bench");
            ("unix_time", Json.Float (now ()));
            ("ocaml_version", Json.String Sys.ocaml_version);
            ("jobs", Json.Int !jobs);
            ("argv", Json.List (List.map (fun s -> Json.String s) chosen));
            ("total_wall_s", Json.Float total);
            ( "sections",
              Json.List
                (List.rev_map
                   (fun r ->
                     Json.Obj
                       [
                         ("name", Json.String r.rec_name);
                         ("wall_s", Json.Float r.rec_wall_s);
                         ("jobs", Json.Int r.rec_jobs);
                         ("peak_rss_kb", Json.Int r.rec_peak_rss_kb);
                         ("metrics", Json.Obj r.rec_metrics);
                       ])
                   !records) );
          ]
      in
      let oc = open_out path in
      output_string oc (Json.to_string_pretty report);
      close_out oc;
      Printf.eprintf "bench: wrote %s\n" path);
  pf "\nDone.\n";
  match compare_path with
  | None -> ()
  | Some path -> if compare_against ~path !records > 0 then exit 1
