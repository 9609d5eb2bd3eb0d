(* simulate: one client runs cold [iolb simulate] commands at seeded
   sizes: pebble games on built-ins and the same programs through
   [--file], an exact sweep with the OPT column, a streamed sweep at
   [--jobs 2] and a sampled sweep. *)

open Common

type kind = Game | File_game | Sweep | Stream | Sampled

let kind_name = function
  | Game -> "game"
  | File_game -> "file_game"
  | Sweep -> "sweep"
  | Stream -> "stream"
  | Sampled -> "sampled"

type op = { kind : kind; kernel : string; m : int; n : int; args : string list }

let game_kernels = [ "mgs"; "qr_hh_a2v" ]
let sizes_spec = "16:512:16"
let sizes = List.init 32 (fun i -> 16 * (i + 1))
let sample_rate = 0.01

(* Sizes drawn from three strata rotating over cycles, so three
   consecutive cycles cover the low, middle and high thirds of each range.
   The op families are offset by one stratum each, so every cycle mixes a
   low, a middle and a high draw and costs about the same. *)
let draw ~seed ~tag ~lo ~hi i =
  Rng.stratum (Rng.make seed (Printf.sprintf "sim-%s-%d" tag i)) ~lo ~hi ~strata:3 i

(* One streamed size per run: its jobs-1 reference is computed once. *)
let stream_m seed = Rng.int (Rng.make seed "sim-stream") 254 258
let sample_seed seed = Rng.int (Rng.make seed "sim-sample-seed") 1 1_000_000

let cycle ~seed c =
  let d = string_of_int in
  let games =
    List.concat
      (List.mapi
         (fun ki k ->
           let m = draw ~seed ~tag:k ~lo:46 ~hi:51 (c + (2 * ki)) in
           let n = m / 2 in
           [ { kind = Game; kernel = k; m; n;
               args = [ "simulate"; k; "-m"; d m; "-n"; d n ] };
             { kind = File_game; kernel = k; m; n;
               args =
                 [ "simulate"; "--file"; Filename.concat examples_dir (k ^ ".iolb");
                   "--param"; "M=" ^ d m; "--param"; "N=" ^ d n ] } ])
         game_kernels)
  in
  let sweep_m = draw ~seed ~tag:"sweep" ~lo:93 ~hi:101 (c + 1) in
  let sm = stream_m seed in
  let sampled_m = draw ~seed ~tag:"sampled" ~lo:1000 ~hi:1048 (c + 2) in
  let mgs kind m n extra =
    { kind; kernel = "mgs"; m; n;
      args = [ "simulate"; "mgs"; "-m"; d m; "-n"; d n; "--sizes"; sizes_spec ] @ extra }
  in
  games
  @ [ mgs Sweep sweep_m (sweep_m / 2) [];
      mgs Stream sm (sm / 2) [ "--jobs"; "2" ];
      mgs Sampled sampled_m 256
        [ "--sample-rate"; string_of_float sample_rate;
          "--sample-seed"; d (sample_seed seed) ] ]

(* ---- output parsing ---- *)

let loads_after label out =
  find_map_lines (fun l -> int_after ~prefix:("  " ^ label) l) out

let bound_values out =
  List.filter_map
    (fun l ->
      if String.starts_with ~prefix:"  lower bound (" l then
        Scanf.sscanf_opt l "  lower bound (%_[^)]): %f" Fun.id
      else None)
    (lines out)

(* Table rows "S | a b c | ..." after the header line. *)
let table_rows out =
  List.filter_map
    (fun l ->
      match String.split_on_char '|' l with
      | s :: cols when Scanf.sscanf_opt s " %d " Fun.id <> None ->
          Some (Scanf.sscanf s " %d " Fun.id, List.map String.trim cols)
      | _ -> None)
    (lines out)

let ints s =
  String.split_on_char ' ' s |> List.filter (( <> ) "") |> List.map int_of_string

let floats s =
  String.map (function '[' | ']' | ',' -> ' ' | c -> c) s
  |> String.split_on_char ' ' |> List.filter (( <> ) "") |> List.map float_of_string

let sampled_counts out =
  Scanf.sscanf_opt out "sampled cache sweep: kept %d of %d" (fun a b -> (a, b))

let lru_cols out =
  List.map (fun (s, cols) -> (s, ints (List.hd cols))) (table_rows out)

let row_cols (r : Replay.row) = [ r.Replay.lru; r.Replay.hits; r.Replay.stores ]

(* ---- checks ---- *)

type state = {
  games : (string * int * int, int * int) Hashtbl.t;  (** built-in loads *)
  mutable stream_ref : (int * int list) list option;
}

let check_game st op out =
  let desc = String.concat " " op.args in
  match (loads_after "program order :" out, loads_after "random order  :" out) with
  | Some prog, Some random ->
      let bounds = bound_values out in
      check (bounds <> []) "%s: no lower bound printed" desc;
      List.iter
        (fun b -> check (float_of_int prog >= b) "%s: program-order loads %d < bound %g" desc prog b)
        bounds;
      let key = (op.kernel, op.m, op.n) in
      (match op.kind with
      | Game -> Hashtbl.replace st.games key (prog, random)
      | _ -> (
          match Hashtbl.find_opt st.games key with
          | Some loads ->
              check (loads = (prog, random)) "%s: --file loads differ from the built-in run" desc
          | None -> fail "%s: no built-in run to compare with" desc))
  | _ -> fail "%s: unparsable pebble output" desc

let check_sweep op out =
  let rows = table_rows out in
  check (List.map fst rows = sizes) "sweep %dx%d: wrong rows" op.m op.n;
  List.iter
    (fun (s, cols) ->
      match cols with
      | [ lru; opt; lb ] ->
          let lru = List.hd (ints lru) and opt = int_of_string opt in
          let lb = float_of_string lb in
          check (lb <= float_of_int opt && opt <= lru)
            "sweep %dx%d S=%d: not bound %g <= opt %d <= lru %d" op.m op.n s lb opt lru
      | _ -> fail "sweep %dx%d: unparsable row" op.m op.n)
    rows

let check_stream st op out =
  let rows = lru_cols out in
  match st.stream_ref with
  | Some reference -> check (rows = reference) "stream %dx%d: --jobs 2 LRU columns differ from jobs 1" op.m op.n
  | None -> () (* the traced pass checks it after computing jobs 1 *)

let check_sampled op out =
  let rows = table_rows out in
  check (List.map fst rows = sizes) "sampled %dx%d: wrong rows" op.m op.n;
  let ests =
    List.map
      (fun (s, cols) ->
        match cols with
        | [ est_ci; _; lb ] -> (
            match floats est_ci with
            | [ est; lo; hi ] ->
                check (lo <= est && est <= hi && float_of_string lb <= hi)
                  "sampled S=%d: interval [%g, %g] misses estimate %g or bound %s" s lo hi est lb;
                est
            | _ -> fail "sampled: unparsable row"; nan)
        | _ -> fail "sampled: unparsable row"; nan)
      rows
  in
  (* LRU's inclusion property: loads never grow with the cache. *)
  ignore
    (List.fold_left
       (fun prev e ->
         check (e <= prev) "sampled %dx%d: LRU load estimate grows with S" op.m op.n;
         e)
       infinity ests)

let run_op ctx st op =
  attempt ();
  let r = cli ctx op.args in
  if r.Proc.code <> 0 then fail "%s: exit %d: %s" (String.concat " " op.args) r.Proc.code r.Proc.err
  else
    checking (fun () ->
        match op.kind with
        | Game | File_game -> check_game st op r.Proc.out
        | Sweep -> check_sweep op r.Proc.out
        | Stream -> check_stream st op r.Proc.out
        | Sampled -> check_sampled op r.Proc.out);
  r

let stream_reference ctx =
  let m = stream_m ctx.seed in
  let e = Iolb.Report.find "mgs" in
  let params = Replay.ok_exn (Iolb.Report.concrete_params e ~m ~n:(m / 2)) in
  let _, rows = Replay.stream_at ~jobs:1 ~params ~sizes e.Iolb.Report.program in
  List.map2 (fun s r -> (s, row_cols r)) sizes rows

(* Set-up: a cold start of the CLI; the inputs are the shipped sources and
   command-line sizes. *)
let setup ctx _ =
  let r = cli ctx [ "list" ] in
  if r.Proc.code <> 0 then failwith "iolb list failed"

let run ctx =
  let (), setup_s = timed_setup ~reps:9 (setup ctx) in
  metric "setup_s" "s" setup_s;
  let st = { games = Hashtbl.create 16; stream_ref = Some (stream_reference ctx) } in
  let rss = ref 0 in
  let lat, elapsed =
    closed_loop ~seconds:ctx.seconds ~cycle:(cycle ~seed:ctx.seed) (fun op ->
        let r = run_op ctx st op in
        rss := max !rss r.Proc.rss_kb;
        r.Proc.wall_s)
  in
  report_latency ~ops:(List.length lat) ~elapsed ~lat_s:lat;
  metric "peak_rss_mb" "MB" (float_of_int !rss /. 1024.)

let traced ctx =
  setup ctx 0;
  let st = { games = Hashtbl.create 16; stream_ref = None } in
  let runs = List.map (fun op -> (op, run_op ctx st op)) (cycle ~seed:ctx.seed 0) in
  let walls kind =
    List.filter_map
      (fun (op, r) -> if op.kind = kind then Some (r.Proc.wall_s *. 1000.) else None)
      runs
  in
  let med kind = Stats.median (walls kind) in
  metric "cli.game_ms" "ms" (med Game);
  metric "cli.file_game_ms" "ms" (med File_game);
  metric "cli.file_game_ratio" "ratio" (med File_game /. med Game);
  metric "cli.sweep_ms" "ms" (med Sweep);
  metric "cli.stream_ms" "ms" (med Stream);
  metric "cli.sampled_ms" "ms" (med Sampled);
  let replay_op (op, (r : Proc.result)) =
    let out = r.Proc.out in
    let thunk () =
      match op.kind with
      | Game ->
          Replay.builtin_game ~kernel:op.kernel ~m:op.m ~n:op.n ~s:256
          = Hashtbl.find st.games (op.kernel, op.m, op.n)
      | File_game ->
          let path = Filename.concat examples_dir (op.kernel ^ ".iolb") in
          Replay.file_game ~path ~params:[ ("M", op.m); ("N", op.n) ] ~s:256
          = Hashtbl.find st.games (op.kernel, op.m, op.n)
      | Sweep ->
          let _, rows = Replay.exact_sweep ~kernel:op.kernel ~m:op.m ~n:op.n ~sizes in
          List.map
            (fun (s, cols) ->
              (s, ints (List.nth cols 0) @ [ int_of_string (List.nth cols 1) ]))
            (table_rows out)
          = List.map2 (fun s r -> (s, row_cols r @ [ r.Replay.opt ])) sizes rows
      | Stream ->
          let (_, r1), (_, r2) = Replay.stream ~kernel:op.kernel ~m:op.m ~n:op.n ~sizes in
          (* The command ran at --jobs 2; its LRU columns must equal the
             jobs-1 replay's, and the two widths must agree. *)
          let cols rows = List.map2 (fun s r -> (s, row_cols r)) sizes rows in
          cols r1 = lru_cols out && cols r1 = cols r2
      | Sampled ->
          let kept, total =
            Replay.sampled ~kernel:op.kernel ~m:op.m ~n:op.n ~rate:sample_rate
              ~seed:(sample_seed ctx.seed)
          in
          sampled_counts out = Some (kept, total)
    in
    (kind_name op.kind, r.Proc.wall_s, thunk)
  in
  Trace_run.replay ~ops:(List.map replay_op runs);
  let per_s count span =
    if Span.total_ms span > 0. then count /. (Span.total_ms span /. 1000.) else 0.
  in
  let count name =
    float_of_int (Option.value ~default:0 (List.assoc_opt name (Span.counts_sorted ())))
  in
  metric "pebble.sweep_events_per_s" "1/s" (per_s (count "ir.trace_events") "pebble.sweep");
  metric "pebble.shard_speedup" "ratio"
    (Span.total_ms "pebble.stream_j1" /. Span.total_ms "pebble.stream_j2");
  let sampled_total =
    List.fold_left
      (fun acc (op, (r : Proc.result)) ->
        match (op.kind, sampled_counts r.Proc.out) with
        | Sampled, Some (_, total) -> acc +. float_of_int total
        | _ -> acc)
      0. runs
  in
  metric "pebble.sampled_eff_per_s" "1/s" (per_s sampled_total "pebble.sampled")
