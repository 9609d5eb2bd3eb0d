(* Fault injection against the resilience boundary: a budget hook forces
   Budget.Exhausted at exactly the k-th checkpoint of each stage, for every
   paper kernel and two baselines.  The contract under attack:

   - no exception ever escapes a _checked entry point;
   - the outcome is either a typed error or a degraded-but-SOUND analysis:
     every surviving bound must stay below the I/O measured by playing the
     pebble game on a valid schedule at small concrete sizes. *)

module D = Iolb.Derive
module Report = Iolb.Report
module Budget = Iolb_util.Budget
module EE = Iolb_util.Engine_error
module Cdag = Iolb_cdag.Cdag
module Game = Iolb_pebble.Game
module Cache = Iolb_pebble.Cache
module Trace = Iolb_pebble.Trace
module K = Iolb_kernels

let stages =
  Budget.[ Poly_projection; Cdag_build; Pebble_game; Cache_sim; Derivation ]

(* Checkpoint indices to fire at: the first one, and one deep enough to land
   mid-loop in every stage that runs at all. *)
let ks = [ 1; 25 ]

let cache_sizes = [ 8; 32 ]

(* Measured pebble-game loads for an entry at its verification sizes, per
   cache size; memoized because every fault scenario re-checks against it.
   [None] when S is infeasible for the CDAG's fan-in. *)
let measured : (string * int, int option) Hashtbl.t = Hashtbl.create 32

let loads_at ~name ~params program s =
  match Hashtbl.find_opt measured (name, s) with
  | Some v -> v
  | None ->
      let v =
        let cdag = Cdag.of_program ~params program in
        match
          Game.run_checked cdag ~s ~schedule:(Game.program_schedule cdag)
        with
        | Ok r -> Some r.Game.loads
        | Error _ -> None
      in
      Hashtbl.add measured (name, s) v;
      v

(* Evaluation parameters differ from CDAG parameters for GEHD2: its derived
   formulas are finalized with the loop split M = N/2 - 1 substituted, so
   they are functions of N (and S) only. *)
let eval_params (entry : Report.entry) =
  match entry.kernel with
  | Iolb.Paper_formulas.Gehd2 ->
      List.filter (fun (name, _) -> name = "N") entry.verify_params
  | _ -> entry.verify_params

(* Any bound surviving a degraded analysis is still a lower bound on optimal
   I/O, hence dominated by the loads of EVERY valid schedule. *)
let check_sound ~ctx ~name ~cdag_params ~eval_params program bounds =
  List.iter
    (fun s ->
      match loads_at ~name ~params:cdag_params program s with
      | None -> ()
      | Some loads -> (
          match D.best ~params:eval_params ~s bounds with
          | None -> ()
          | Some b ->
              let v = D.eval b ~params:eval_params ~s in
              if v > float_of_int loads +. 1e-6 then
                Alcotest.failf
                  "%s: unsound degraded bound for %s at S=%d: %.2f > measured \
                   %d loads"
                  ctx name s v loads))
    cache_sizes

let describe stage k =
  Printf.sprintf "fault (%s, %d)" (Budget.stage_name stage) k

let test_ladder_faults_paper_kernels () =
  List.iter
    (fun (entry : Report.entry) ->
      List.iter
        (fun stage ->
          List.iter
            (fun k ->
              let budget = Budget.make ~fault:(stage, k) () in
              match Report.analyze_checked ~budget entry with
              | Ok a ->
                  check_sound
                    ~ctx:(describe stage k)
                    ~name:entry.display ~cdag_params:entry.verify_params
                    ~eval_params:(eval_params entry) entry.program a.bounds
              | Error (EE.Budget_exhausted _) -> ()
              | Error e ->
                  Alcotest.failf "%s on %s: unexpected error %s"
                    (describe stage k) entry.display (EE.to_string e)
              | exception e ->
                  Alcotest.failf "%s on %s: escaped exception %s"
                    (describe stage k) entry.display (Printexc.to_string e))
            ks)
        stages)
    Report.registry

let test_ladder_faults_baselines () =
  let baselines =
    List.filter
      (fun (name, _, _) -> name = "gemm" || name = "cholesky")
      Report.baselines
  in
  Alcotest.(check int) "two baselines under test" 2 (List.length baselines);
  List.iter
    (fun (name, program, verify_params) ->
      List.iter
        (fun stage ->
          List.iter
            (fun k ->
              let budget = Budget.make ~fault:(stage, k) () in
              match D.analyze_ladder ~budget ~verify_params program with
              | Ok (o : D.outcome) ->
                  check_sound
                    ~ctx:(describe stage k)
                    ~name ~cdag_params:verify_params ~eval_params:verify_params
                    program o.bounds
              | Error (EE.Budget_exhausted _) -> ()
              | Error e ->
                  Alcotest.failf "%s on %s: unexpected error %s"
                    (describe stage k) name (EE.to_string e)
              | exception e ->
                  Alcotest.failf "%s on %s: escaped exception %s"
                    (describe stage k) name (Printexc.to_string e))
            ks)
        stages)
    baselines

(* The ladder must actually degrade - not just error out - under a step
   budget that kills both partitioning rungs: these kernels update in
   place, so the read-modify-written array qualifies for the trivial
   input-footprint rung.  The cap is one step short of the single CDAG
   build (one step per statement instance), so the hourglass rung dies in
   CDAG construction and the classical rung finds the budget spent. *)
let test_degrades_to_trivial () =
  List.iter
    (fun name ->
      let entry = Report.find name in
      let max_steps =
        Cdag.n_computes
          (Cdag.of_program ~params:entry.verify_params entry.program)
        - 1
      in
      let ctx = Printf.sprintf "max-steps %d" max_steps in
      let budget = Budget.make ~max_steps () in
      match Report.analyze_checked ~budget entry with
      | Error e ->
          Alcotest.failf "%s: expected degradation, got %s" name
            (EE.to_string e)
      | Ok a ->
          Alcotest.(check bool) "degradation recorded" true
            (a.degradation <> None);
          Alcotest.(check bool) "trivial bound produced" true
            (List.exists (fun (b : D.t) -> b.technique = D.Trivial) a.bounds);
          check_sound ~ctx ~name:entry.display
            ~cdag_params:entry.verify_params ~eval_params:(eval_params entry)
            entry.program a.bounds)
    [ "mgs"; "gebd2"; "qr_hh_a2v"; "gehd2" ]

(* A generous budget must not change the result at all: same bounds as the
   unlimited pipeline, and no degradation note. *)
let test_generous_budget_is_transparent () =
  List.iter
    (fun (entry : Report.entry) ->
      let unlimited = Report.analyze entry in
      let budget = Budget.make ~max_steps:100_000_000 ~timeout_ms:600_000 () in
      match Report.analyze_checked ~budget entry with
      | Error e -> Alcotest.failf "generous budget failed: %s" (EE.to_string e)
      | Ok a ->
          Alcotest.(check (option string))
            (entry.display ^ ": no degradation")
            None a.degradation;
          Alcotest.(check int)
            (entry.display ^ ": same number of bounds")
            (List.length unlimited.bounds)
            (List.length a.bounds);
          List.iter2
            (fun (b : D.t) (b' : D.t) ->
              Alcotest.(check bool)
                (entry.display ^ ": identical formulas")
                true
                (Iolb_symbolic.Ratfun.equal b.formula b'.formula))
            unlimited.bounds a.bounds)
    Report.registry

(* Pebble-game and cache-simulation checkpoints are not reached by analyze;
   inject into their own entry points. *)
let test_game_and_cache_faults () =
  let entry = Report.find "mgs" in
  let cdag = Cdag.of_program ~params:entry.verify_params entry.program in
  let schedule = Game.program_schedule cdag in
  (match
     Game.run_checked
       ~budget:(Budget.make ~fault:(Budget.Pebble_game, 3) ())
       cdag ~s:16 ~schedule
   with
  | Error (EE.Budget_exhausted Budget.Pebble_game) -> ()
  | Ok _ -> Alcotest.fail "pebble fault: expected budget exhaustion, got Ok"
  | Error e ->
      Alcotest.failf "pebble fault: wrong error %s" (EE.to_string e));
  let trace = Trace.of_program ~params:[] (K.Mgs.tiled_spec ~m:6 ~n:4 ~b:2) in
  List.iter
    (fun sim ->
      match
        sim ~budget:(Budget.make ~fault:(Budget.Cache_sim, 2) ()) ~size:8 trace
      with
      | Error (EE.Budget_exhausted Budget.Cache_sim) -> ()
      | Ok _ -> Alcotest.fail "cache fault: expected budget exhaustion, got Ok"
      | Error e ->
          Alcotest.failf "cache fault: wrong error %s" (EE.to_string e))
    [
      (fun ~budget ~size t -> Cache.lru_checked ~budget ~size t);
      (fun ~budget ~size t -> Cache.opt_checked ~budget ~size t);
    ];
  (* A budget kill mid-sweep degrades the same way: typed error, no escaped
     exception.  Fire both early (in the distance pass) and late (in the
     per-cell epilogue, past the trace length). *)
  List.iter
    (fun k ->
      match
        Iolb_pebble.Sweep.run_checked
          ~budget:(Budget.make ~fault:(Budget.Cache_sim, k) ())
          trace
      with
      | Error (EE.Budget_exhausted Budget.Cache_sim) -> ()
      | Ok _ ->
          Alcotest.failf "sweep fault %d: expected budget exhaustion, got Ok" k
      | Error e ->
          Alcotest.failf "sweep fault %d: wrong error %s" k (EE.to_string e))
    [ 2; Trace.length trace + 1 ];
  (* Trace building charges the Cdag_build stage. *)
  match
    EE.guard (fun () ->
        Trace.of_program
          ~budget:(Budget.make ~fault:(Budget.Cdag_build, 2) ())
          ~params:[]
          (K.Mgs.tiled_spec ~m:6 ~n:4 ~b:2))
  with
  | Error (EE.Budget_exhausted Budget.Cdag_build) -> ()
  | Ok _ -> Alcotest.fail "trace fault: expected budget exhaustion, got Ok"
  | Error e -> Alcotest.failf "trace fault: wrong error %s" (EE.to_string e)

(* The sharded, streaming and sampled sweep paths poll the same budget:
   a fault fired mid-shard (inside a worker domain) must surface as the
   same typed error through the _checked entry points, never as an
   escaped exception, at any jobs width. *)
let test_sharded_sweep_faults () =
  let spec = K.Mgs.tiled_spec ~m:6 ~n:4 ~b:2 in
  let trace = Trace.of_program ~params:[] spec in
  let expect what f =
    match f () with
    | Error (EE.Budget_exhausted _) -> ()
    | Ok _ -> Alcotest.failf "%s: expected budget exhaustion, got Ok" what
    | Error e -> Alcotest.failf "%s: wrong error %s" what (EE.to_string e)
    | exception e ->
        Alcotest.failf "%s: escaped exception %s" what (Printexc.to_string e)
  in
  (* mid-shard: half the events land in the second worker's segment *)
  let ks = [ 2; (Trace.length trace / 2) + 3 ] in
  List.iter
    (fun jobs ->
      List.iter
        (fun k ->
          expect (Printf.sprintf "segmented jobs=%d k=%d" jobs k) (fun () ->
              EE.guard (fun () ->
                  Iolb_pebble.Sweep.run_segmented
                    ~budget:(Budget.make ~fault:(Budget.Cache_sim, k) ())
                    ~jobs trace));
          expect (Printf.sprintf "streamed jobs=%d k=%d" jobs k) (fun () ->
              Iolb_pebble.Sweep.run_program_checked
                ~budget:(Budget.make ~fault:(Budget.Cache_sim, k) ())
                ~jobs ~params:[] spec))
        ks;
      (* a deadline that has already passed must also kill the shards *)
      expect (Printf.sprintf "deadline jobs=%d" jobs) (fun () ->
          Iolb_pebble.Sweep.run_program_checked
            ~budget:(Budget.make ~timeout_ms:0 ())
            ~jobs ~params:[] spec))
    [ 1; 2; 4 ];
  (* the sampled scan checkpoints Cache_sim too (per kept event and per
     64k-access tick) *)
  expect "sampled k=2" (fun () ->
      Iolb_pebble.Sweep.run_sampled_checked
        ~budget:(Budget.make ~fault:(Budget.Cache_sim, 2) ())
        ~rate:0.6 ~seed:0 ~params:[] spec);
  expect "sampled deadline" (fun () ->
      Iolb_pebble.Sweep.run_sampled_checked
        ~budget:(Budget.make ~timeout_ms:0 ())
        ~rate:0.6 ~seed:0 ~params:[] spec)

(* An already-passed wall-clock deadline is the one budget not even the
   trivial rung survives: the ladder must fail with the typed error (the
   CLI maps it to exit code 3). *)
let test_deadline_always_fails () =
  List.iter
    (fun (entry : Report.entry) ->
      let budget = Budget.make ~timeout_ms:0 () in
      match Report.analyze_checked ~budget entry with
      | Error (EE.Budget_exhausted _) -> ()
      | Ok _ ->
          Alcotest.failf "%s: passed deadline not detected" entry.display
      | Error e ->
          Alcotest.failf "%s: wrong error %s" entry.display (EE.to_string e))
    Report.registry

let suite =
  [
    Alcotest.test_case "ladder faults on paper kernels" `Quick
      test_ladder_faults_paper_kernels;
    Alcotest.test_case "ladder faults on baselines" `Quick
      test_ladder_faults_baselines;
    Alcotest.test_case "step cap degrades to trivial rung" `Quick
      test_degrades_to_trivial;
    Alcotest.test_case "generous budget is transparent" `Quick
      test_generous_budget_is_transparent;
    Alcotest.test_case "pebble/cache/trace fault injection" `Quick
      test_game_and_cache_faults;
    Alcotest.test_case "sharded/sampled sweep fault injection" `Quick
      test_sharded_sweep_faults;
    Alcotest.test_case "passed deadline always fails" `Quick
      test_deadline_always_fails;
  ]
