(* CDAG construction and the red-white pebble game. *)

module Cdag = Iolb_cdag.Cdag
module Game = Iolb_pebble.Game
module Program = Iolb_ir.Program
module K = Iolb_kernels
module Report = Iolb.Report
module Gen = Iolb_check.Gen
module Spec = Iolb_check.Spec

let mgs_cdag m n = Cdag.of_program ~params:[ ("M", m); ("N", n) ] K.Mgs.spec

let test_cdag_counts () =
  let params = [ ("M", 5); ("N", 3) ] in
  let cdag = Cdag.of_program ~params K.Mgs.spec in
  Alcotest.(check int)
    "computes = instances"
    (Program.count_instances ~params K.Mgs.spec)
    (Cdag.n_computes cdag);
  (* Inputs: exactly the M*N cells of A. *)
  Alcotest.(check int) "inputs = M*N" 15 (Cdag.n_inputs cdag)

(* [Cdag.reaches] prunes its search by node id, which is sound only if
   node ids are a topological order: every predecessor id is below its
   node's id, and [program_order] is the identity. *)
let check_ids_topological ctx cdag =
  let order = Cdag.program_order cdag in
  Alcotest.(check bool)
    (ctx ^ ": program order is the identity")
    true
    (order = Array.init (Cdag.n_nodes cdag) Fun.id);
  let ok = ref true in
  for id = 0 to Cdag.n_nodes cdag - 1 do
    Array.iter (fun p -> if p >= id then ok := false) (Cdag.preds cdag id)
  done;
  Alcotest.(check bool) (ctx ^ ": preds before succs") true !ok

let test_program_order_topological () =
  check_ids_topological "mgs 5x3" (mgs_cdag 5 3);
  List.iter
    (fun (e : Report.entry) ->
      check_ids_topological e.display
        (Cdag.of_program ~params:e.verify_params e.program))
    Report.registry;
  List.iter
    (fun seed ->
      let prog, params = Spec.to_program (Gen.spec ~seed) in
      check_ids_topological
        (Printf.sprintf "generated seed %d" seed)
        (Cdag.of_program ~params prog))
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let test_reachability () =
  let cdag = mgs_cdag 4 3 in
  let reach = Cdag.reachability cdag in
  (* SU[0,1,0] must reach SU[1,2,0] (hourglass chain), and nothing reaches
     backwards. *)
  let a = Option.get (Cdag.node_of_instance cdag "SU" [| 0; 1; 0 |]) in
  let b = Option.get (Cdag.node_of_instance cdag "SU" [| 1; 2; 0 |]) in
  Alcotest.(check bool) "forward reachable" true (Cdag.reaches reach a b);
  Alcotest.(check bool) "not backward" false (Cdag.reaches reach b a)

(* Reference reachability: an unpruned BFS over successor edges, marking
   every node reachable from [a] (including [a] itself). *)
let bfs_from cdag a =
  let seen = Array.make (Cdag.n_nodes cdag) false in
  let queue = Queue.create () in
  seen.(a) <- true;
  Queue.add a queue;
  while not (Queue.is_empty queue) do
    Array.iter
      (fun v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          Queue.add v queue
        end)
      (Cdag.succs cdag (Queue.pop queue))
  done;
  seen

(* The id-pruned oracle agrees with the plain BFS on every ordered pair,
   queried in one oracle so the epoch-stamped marks are reused. *)
let test_reaches_matches_bfs () =
  let gebd2 = Report.find "gebd2" in
  List.iter
    (fun (ctx, cdag) ->
      let reach = Cdag.reachability cdag in
      let n = Cdag.n_nodes cdag in
      let mismatches = ref 0 in
      for a = 0 to n - 1 do
        let expected = bfs_from cdag a in
        for b = 0 to n - 1 do
          if Cdag.reaches reach a b <> expected.(b) then incr mismatches
        done
      done;
      Alcotest.(check int) (ctx ^ ": pairs disagreeing with BFS") 0 !mismatches)
    [
      ("mgs 4x3", mgs_cdag 4 3);
      ( "gebd2 at verify sizes",
        Cdag.of_program ~params:gebd2.verify_params gebd2.program );
    ]

let test_convex_closure () =
  let cdag = mgs_cdag 4 3 in
  (* SU instances at the same neutral j = 2, consecutive temporal k. *)
  let a = Option.get (Cdag.node_of_instance cdag "SU" [| 0; 2; 0 |]) in
  let b = Option.get (Cdag.node_of_instance cdag "SU" [| 1; 2; 0 |]) in
  let closure = Cdag.convex_closure cdag [ a; b ] in
  (* The closure must contain the whole SR[1,2,*] reduction line (the
     hourglass neck). *)
  let contains_sr =
    List.exists
      (fun id ->
        match Cdag.kind cdag id with
        | Cdag.Compute ("SR", [| 1; 2; _ |]) -> true
        | _ -> false)
      closure
  in
  Alcotest.(check bool) "closure contains SR line" true contains_sr;
  Alcotest.(check bool) "closure contains endpoints" true
    (List.mem a closure && List.mem b closure)

let test_inset () =
  let cdag = mgs_cdag 4 3 in
  (* A single node's inset is its in-degree (distinct predecessors). *)
  let a = Option.get (Cdag.node_of_instance cdag "SU" [| 0; 1; 0 |]) in
  Alcotest.(check int) "inset of single node" 3 (Cdag.inset cdag [ a ]);
  Alcotest.(check int) "inset of empty set" 0 (Cdag.inset cdag [])

let test_game_runs_and_counts () =
  let cdag = mgs_cdag 6 4 in
  let schedule = Game.program_schedule cdag in
  let footprint = Cdag.n_inputs cdag in
  (* With a huge memory, loads = compulsory input loads only. *)
  let big = Game.run cdag ~s:10_000 ~schedule in
  Alcotest.(check int) "loads = inputs when S is huge" footprint big.loads;
  (* With a small memory, more loads are needed; never fewer. *)
  let small = Game.run cdag ~s:8 ~schedule in
  Alcotest.(check bool) "small memory loads >= inputs" true
    (small.loads >= footprint);
  Alcotest.(check bool) "peak respects capacity" true (small.peak_red <= 8)

let test_game_monotone_in_s () =
  let cdag = mgs_cdag 6 4 in
  let schedule = Game.program_schedule cdag in
  let loads s = (Game.run cdag ~s ~schedule).loads in
  let l8 = loads 8 and l16 = loads 16 and l32 = loads 32 in
  Alcotest.(check bool) "monotone" true (l8 >= l16 && l16 >= l32)

let test_game_infeasible () =
  let cdag = mgs_cdag 4 3 in
  let schedule = Game.program_schedule cdag in
  Alcotest.(check bool) "S=2 infeasible (fan-in 3 + result)" true
    (try
       ignore (Game.run cdag ~s:2 ~schedule);
       false
     with Game.Infeasible _ -> true)

let test_random_schedules_valid () =
  let cdag = mgs_cdag 5 3 in
  List.iter
    (fun seed ->
      let schedule = Game.random_topological ~seed cdag in
      Alcotest.(check bool)
        (Printf.sprintf "random schedule %d topological" seed)
        true
        (Game.is_topological cdag schedule);
      let r = Game.run cdag ~s:12 ~schedule in
      Alcotest.(check bool) "positive loads" true (r.loads > 0))
    [ 0; 1; 2; 3; 4 ]

let test_rejects_bad_schedule () =
  let cdag = mgs_cdag 4 3 in
  let schedule = Game.program_schedule cdag in
  (* Reverse it: certainly not topological. *)
  let bad = Array.of_list (List.rev (Array.to_list schedule)) in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Game.run cdag ~s:100 ~schedule:bad);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "cdag node counts" `Quick test_cdag_counts;
    Alcotest.test_case "program order is topological" `Quick
      test_program_order_topological;
    Alcotest.test_case "reachability" `Quick test_reachability;
    Alcotest.test_case "pruned reachability matches BFS" `Quick
      test_reaches_matches_bfs;
    Alcotest.test_case "convex closure contains the neck" `Quick
      test_convex_closure;
    Alcotest.test_case "inset" `Quick test_inset;
    Alcotest.test_case "pebble game load counts" `Quick test_game_runs_and_counts;
    Alcotest.test_case "loads monotone in S" `Quick test_game_monotone_in_s;
    Alcotest.test_case "infeasible when fan-in exceeds S" `Quick
      test_game_infeasible;
    Alcotest.test_case "random topological schedules" `Quick
      test_random_schedules_valid;
    Alcotest.test_case "non-topological schedules rejected" `Quick
      test_rejects_bad_schedule;
  ]
