(* The traced replay: each command's current composition of library
   calls, rebuilt from the public entry points with a span around every
   call into a layer.  Outputs are re-rendered and compared with what the
   command printed, so a replay that drifts from its command shows up as
   a failed check instead of as silently wrong layer numbers.  This is a
   stand-in for an in-program stage profiler, which would replace it. *)

module Budget = Iolb_util.Budget
module D = Iolb.Derive
module H = Iolb.Hourglass
module R = Iolb.Report
module Front = Iolb_front.Front
module Driver = Iolb_front.Driver
module Cdag = Iolb_cdag.Cdag
module Game = Iolb_pebble.Game
module Trace = Iolb_pebble.Trace
module Cache = Iolb_pebble.Cache
module Sweep = Iolb_pebble.Sweep

let ok_exn = function
  | Ok x -> x
  | Error e -> failwith (Format.asprintf "%a" Iolb_util.Engine_error.pp e)

(* The counting pass gives every op a budget that never stops work but
   counts every checkpoint per stage ([Budget.make ()] and
   [Budget.unlimited] count nothing).  Counting costs an atomic increment
   per checkpoint, shared by every worker domain, so the timed passes use
   the commands' own uncapped budget instead. *)
let counting = ref false

let budget () =
  if !counting then Budget.make ~max_steps:max_int () else Budget.make ()

let stages =
  Budget.
    [ (Poly_projection, "poly_projection"); (Cdag_build, "cdag_build");
      (Pebble_game, "pebble_game"); (Cache_sim, "cache_sim");
      (Derivation, "derivation") ]

let count_steps b =
  if !counting then
    List.iter
      (fun (st, name) -> Span.count ("steps." ^ name) (Budget.stage_steps b st))
      stages

(* Work the benchmark itself adds (structure sizes for the counts) runs
   under its own span so it is never attributed to a layer. *)
let bench_only f = Span.with_ "bench.count" f

(* [Derive.analyze_ladder], rung by rung.  Under a budget without caps no
   rung aborts, so the only degradations are the ladder's own. *)
let ladder ~budget ~verify_params p : D.outcome =
  Span.with_ "core.ladder" @@ fun () ->
  let hgs =
    Span.with_ "core.verify" (fun () ->
        H.detect_verified ~budget ~params:verify_params p)
  in
  let hg_bounds =
    Span.with_ "core.hourglass" (fun () ->
        List.concat_map (D.hourglass ~budget p) hgs)
  in
  let classical =
    Span.with_ "core.classical" (fun () -> D.classical_deepest ~budget p)
  in
  match hg_bounds @ classical with
  | _ :: _ as bounds -> { D.bounds; degradation = None }
  | [] -> (
      match Span.with_ "core.trivial" (fun () -> D.trivial p) with
      | Some b ->
          {
            D.bounds = [ b ];
            degradation = Some "degraded to the trivial input-footprint bound";
          }
      | None ->
          {
            D.bounds = [];
            degradation =
              Some
                "no bound derivable (no hourglass; Brascamp-Lieb exponent <= \
                 1; no recognizable input array)";
          })

(* [Report.analyze_checked]: a display-only detection, the ladder, then
   the entry's finalization of every formula.  Also returns the ladder's
   outcome before finalization. *)
let builtin_raw ~budget (e : R.entry) : R.analysis * D.outcome =
  let hourglasses =
    Span.with_ "core.verify" (fun () ->
        H.detect_verified ~budget ~params:e.verify_params e.program)
  in
  let o = ladder ~budget ~verify_params:e.verify_params e.program in
  let finalize (b : D.t) =
    let valid =
      {
        D.s_lo = e.finalize b.D.valid.D.s_lo;
        s_hi = Option.map e.finalize b.D.valid.D.s_hi;
      }
    in
    {
      b with
      D.formula = e.finalize b.D.formula;
      valid;
      validity = D.region_validity valid;
      s_max = valid.D.s_hi;
    }
  in
  ( {
      R.entry = e;
      hourglasses;
      bounds = List.map finalize o.D.bounds;
      degradation = o.D.degradation;
    },
    o )

let builtin ~budget e = fst (builtin_raw ~budget e)

let verify_nodes ~params p =
  bench_only (fun () ->
      Span.count "cdag.verify_nodes" (Cdag.n_nodes (Cdag.of_program ~params p)))

(* GEHD2's split search.  [bounds] pins the split with the entry's
   [finalize] instead, so this call is off the command path: it is timed
   for the layer table only. *)
let split_search (o : D.outcome) =
  Span.with_ "core.split" (fun () ->
      List.iter
        (fun (b : D.t) ->
          if b.D.technique = D.Hourglass then
            match
              D.optimize_split_regions ~jobs:1 b ~param:"M" ~lo:1 ~hi:61
                ~params:[ ("N", 64) ] ~s:64
            with
            | Some r -> Span.count "core.split_evaluated" r.D.evaluated
            | None -> ())
        o.D.bounds)

(* [iolb bounds --jobs 1 --file path]: parse, resolve, then the registry
   report for a built-in or the ladder report for anything else. *)
let derive_file path =
  let budget = budget () in
  let src = Span.with_ "front.parse" (fun () -> ok_exn (Front.parse_file path)) in
  let resolved = Span.with_ "front.resolve" (fun () -> Driver.resolve src) in
  let p = src.Front.program in
  ignore (Span.with_ "core.detect" (fun () -> H.detect p));
  let text =
    match resolved with
    | Some e ->
        let a, raw = builtin_raw ~budget e in
        if e.R.kernel = Iolb.Paper_formulas.Gehd2 then split_search raw;
        Span.with_ "core.render" (fun () -> Driver.render_analysis ~logs:false a)
    | None ->
        let o = ladder ~budget ~verify_params:src.Front.verify p in
        Span.with_ "core.render" (fun () -> Driver.render_outcome ~logs:false o)
  in
  count_steps budget;
  verify_nodes ~params:src.Front.verify p;
  text

(* The pebble half of [iolb simulate] (no --sizes): CDAG, then the
   program-order and random-order games.  Returns both load counts. *)
let games ~budget ~params ~s p =
  let cdag =
    Span.with_ "cdag.build" (fun () ->
        ok_exn (Cdag.of_program_checked ~budget ~params p))
  in
  Span.count "cdag.nodes" (Cdag.n_nodes cdag);
  let play schedule =
    Span.with_ "pebble.game" (fun () ->
        (ok_exn (Game.run_checked ~budget cdag ~s ~schedule:(schedule cdag)))
          .Game.loads)
  in
  let prog = play Game.program_schedule in
  let random = play (fun c -> Game.random_topological ~seed:0 c) in
  Span.count "pebble.game_loads" (prog + random);
  (prog, random)

(* [iolb simulate K -m M -n N]: the registry analysis at its own verify
   sizes, then the games at the simulation sizes. *)
let builtin_game ~kernel ~m ~n ~s =
  let budget = budget () in
  let e = ok_exn (R.find_checked kernel) in
  let params = ok_exn (R.concrete_params e ~m ~n) in
  ignore (builtin ~budget e);
  let r = games ~budget ~params ~s e.R.program in
  count_steps budget;
  r

(* [iolb simulate --file F --param ...]: the ladder runs at the
   simulation sizes, which is where the verification cost comes from. *)
let file_game ~path ~params ~s =
  let budget = budget () in
  let src = Span.with_ "front.parse" (fun () -> ok_exn (Front.parse_file path)) in
  let p = src.Front.program in
  ignore (ladder ~budget ~verify_params:params p);
  verify_nodes ~params p;
  let r = games ~budget ~params ~s p in
  count_steps budget;
  r

type row = { lru : int; hits : int; stores : int; opt : int }

(* [iolb simulate K --sizes ...]: trace, reuse-distance sweep, OPT plan
   and one OPT run per size. *)
let exact_sweep ~kernel ~m ~n ~sizes =
  let budget = budget () in
  let e = ok_exn (R.find_checked kernel) in
  let params = ok_exn (R.concrete_params e ~m ~n) in
  ignore (builtin ~budget e);
  let trace =
    Span.with_ "ir.trace" (fun () -> Trace.of_program ~budget ~params e.program)
  in
  Span.count "ir.trace_events" (Trace.length trace);
  let sweep =
    Span.with_ "pebble.sweep" (fun () -> ok_exn (Sweep.run_checked ~budget trace))
  in
  let plan = Span.with_ "pebble.opt_plan" (fun () -> Cache.opt_plan ~budget trace) in
  let rows =
    List.map
      (fun size ->
        let lru = Sweep.stats sweep ~size in
        let opt =
          Span.with_ "pebble.opt_run" (fun () -> Cache.opt_run ~budget ~size plan)
        in
        Span.count "pebble.opt_runs" 1;
        {
          lru = lru.Cache.loads;
          hits = lru.Cache.read_hits;
          stores = lru.Cache.stores;
          opt = opt.Cache.loads;
        })
      sizes
  in
  count_steps budget;
  (Trace.length trace, rows)

let lru_rows sweep sizes =
  List.map
    (fun size ->
      let l = Sweep.stats sweep ~size in
      { lru = l.Cache.loads; hits = l.Cache.read_hits; stores = l.Cache.stores; opt = 0 })
    sizes

(* The streamed sweep at one worker width (no OPT column). *)
let stream_at ~jobs ~params ~sizes p =
  let budget = budget () in
  let sweep =
    Span.with_ (Printf.sprintf "pebble.stream_j%d" jobs) (fun () ->
        ok_exn (Sweep.run_program_checked ~budget ~jobs ~params p))
  in
  count_steps budget;
  (Sweep.accesses sweep, lru_rows sweep sizes)

(* [iolb simulate K --sizes ... --jobs 2], replayed at widths 1 and 2. *)
let stream ~kernel ~m ~n ~sizes =
  let budget = budget () in
  let e = ok_exn (R.find_checked kernel) in
  let params = ok_exn (R.concrete_params e ~m ~n) in
  ignore (builtin ~budget e);
  count_steps budget;
  let j1 = stream_at ~jobs:1 ~params ~sizes e.R.program in
  let j2 = stream_at ~jobs:2 ~params ~sizes e.R.program in
  (j1, j2)

(* [iolb simulate K --sizes ... --sample-rate r]. *)
let sampled ~kernel ~m ~n ~rate ~seed =
  let budget = budget () in
  let e = ok_exn (R.find_checked kernel) in
  let params = ok_exn (R.concrete_params e ~m ~n) in
  ignore (builtin ~budget e);
  let s =
    Span.with_ "pebble.sampled" (fun () ->
        ok_exn (Sweep.run_sampled_checked ~budget ~rate ~seed ~params e.R.program))
  in
  Span.count "pebble.sampled_kept" (Sweep.sampled_kept_accesses s);
  count_steps budget;
  (Sweep.sampled_kept_accesses s, Sweep.sampled_total_accesses s)
