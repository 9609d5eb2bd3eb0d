(* serve: one [iolb serve] process on a Unix socket in the scratch space,
   driven by two closed-loop connections.  The seeded request mix: repeated
   [analyze] of registry kernels (LRU reads), [eval] at unique points (LRU
   inserts and evictions while the analysis memo hits), [source] with
   enlarged kernel copies (a cold ladder derivation, then an insert) and a
   few [eval] requests with a sampled [empirical] rider. *)

open Common
module R = Iolb.Report
module Json = Iolb_util.Json
module Client = Iolb_serve.Client
module Server = Iolb_serve.Server
module Protocol = Iolb_serve.Protocol

type kind = Analyze | Eval | Probe | Source | Empirical

let kind_name = function
  | Analyze -> "analyze"
  | Eval | Probe -> "eval"
  | Source -> "source"
  | Empirical -> "empirical"

type req = {
  kind : kind;
  kernel : string;
  m : int;
  n : int;
  s : int;
  src : string;  (** [source] text; "" otherwise *)
  line : string;
}

let connections = 2
let kernels = List.map (fun (e : R.entry) -> e.R.program.Iolb_ir.Program.name) R.registry
let block = 20

(* Slots of a block of 20 requests, in a seeded order: 3 source, 1
   empirical, 9 analyze, 7 eval.  The slow fifth (source, empirical) puts
   p90 inside the cold-derivation latencies.  With fewer slow requests p90
   would fall among the fast ones, whose latency is bimodal: alone, or
   stalled behind a derivation on the other connection. *)
let slot_kind slot =
  if slot < 3 then Source else if slot < 4 then Empirical else if slot < 13 then Analyze else Eval

let shipped k = Proc.read_file (Filename.concat examples_dir (k ^ ".iolb"))

let line_of fields = Json.to_string (Json.Obj fields)

let source_req ~id ~kernel (m, n) =
  let src = Printf.sprintf "# %s\n%s" id (W_derive.with_verify (shipped kernel) (m, n)) in
  { kind = Source; kernel; m; n; s = 0; src;
    line = line_of [ ("id", Json.String id); ("op", Json.String "source"); ("src", Json.String src) ] }

let eval_fields ~id ~kernel ~m ~n ~s =
  [ ("id", Json.String id); ("op", Json.String "eval"); ("kernel", Json.String kernel);
    ("m", Json.Int m); ("n", Json.Int n); ("s", Json.Int s) ]

let empirical_rider = [ ("empirical", Json.Obj [ ("rate", Json.Float 0.01); ("seed", Json.Int 7) ]) ]

let analyze_req kernel =
  { kind = Analyze; kernel; m = 0; n = 0; s = 0; src = "";
    line = line_of [ ("id", Json.String ("a-" ^ kernel)); ("op", Json.String "analyze"); ("kernel", Json.String kernel) ] }

(* The repeated request of connection [c]: its responses must be
   byte-identical every time. *)
let probe c =
  let kernel = "mgs" and m = 100 and n = 50 and s = 300 + c in
  { kind = Probe; kernel; m; n; s; src = "";
    line = line_of (eval_fields ~id:(Printf.sprintf "probe-%d" c) ~kernel ~m ~n ~s) }

(* Request [j] of connection [c]. *)
let request ~seed c j =
  let order = Rng.shuffle (Rng.make seed (Printf.sprintf "serve-block-%d-%d" c (j / block))) (List.init block Fun.id) in
  let r = Rng.make seed (Printf.sprintf "serve-op-%d-%d" c j) in
  let id = Printf.sprintf "%d-%d" c j in
  let unique = 1000 + (j * connections) + c in
  let slot = List.nth order (j mod block) in
  match slot_kind slot with
  | Analyze -> analyze_req (List.nth kernels (Rng.int r 0 (List.length kernels - 1)))
  | Eval | Probe when Rng.int r 0 9 = 0 -> probe c
  | Eval | Probe ->
      let kernel = List.nth kernels (Rng.int r 0 (List.length kernels - 1)) in
      let m = Rng.int r 64 512 in
      let n = Rng.int r 16 (m / 2) in
      { kind = Eval; kernel; m; n; s = unique; src = "";
        line = line_of (eval_fields ~id ~kernel ~m ~n ~s:unique) }
  | Source ->
      let kernel = List.nth W_derive.enlarged_kernels (Rng.int r 0 3) in
      let m = Rng.stratum r ~lo:14 ~hi:24 ~strata:3 (j / block + slot) in
      source_req ~id ~kernel (m, 12)
  | Empirical ->
      let m = Rng.stratum r ~lo:224 ~hi:288 ~strata:2 (j / block + c) in
      { kind = Empirical; kernel = "mgs"; m; n = m / 2; s = unique; src = "";
        line = line_of (eval_fields ~id ~kernel:"mgs" ~m ~n:(m / 2) ~s:unique @ empirical_rider) }

(* ---- the server process ---- *)

type server = { pid : int; sock : string }

let rpc conn line =
  Client.send_line conn line;
  match Client.recv_line conn with Some l -> l | None -> failwith "server closed the connection"

let start ctx rep =
  let sock = Filename.concat ctx.scratch (Printf.sprintf "s%d.sock" rep) in
  let log name = Unix.openfile (Filename.concat ctx.scratch name) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let out = log "serve.out" and err = log "serve.err" in
  let pid =
    Proc.spawn ~stdout:out ~stderr:err
      [| ctx.bin; "serve"; "--socket"; sock; "--quiet"; "--jobs"; string_of_int connections |]
  in
  Unix.close out;
  Unix.close err;
  { pid; sock }

let connect srv = Client.connect ~attempts:500 ~delay_s:0.01 (Server.Unix_sock srv.sock)

let vm_hwm_kb pid =
  Proc.read_file (Printf.sprintf "/proc/%d/status" pid)
  |> lines
  |> List.find_map (fun l -> int_after ~prefix:"VmHWM:" l)
  |> Option.value ~default:0

let stop srv =
  (try
     let c = connect srv in
     ignore (rpc c {|{"id":"bye","op":"shutdown"}|});
     Client.close c
   with _ -> ());
  let rec wait tries =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ when tries > 0 -> Unix.sleepf 0.01; wait (tries - 1)
    | 0, _ -> Unix.kill srv.pid Sys.sigkill; ignore (Unix.waitpid [] srv.pid)
    | _ -> ()
  in
  wait 1000

(* Set-up: start the service, wait for it to answer, and warm the
   analysis memo with one [analyze] per registry kernel.  The warm-up
   responses are the reference for every later [analyze]. *)
let setup ctx rep =
  let srv = start ctx rep in
  let c = connect srv in
  ignore (rpc c {|{"id":"hello","op":"ping"}|});
  let refs = Hashtbl.create 8 in
  List.iter
    (fun k ->
      let line = (analyze_req k).line in
      Hashtbl.replace refs line (rpc c line))
    kernels;
  Client.close c;
  (srv, refs)

(* References computed before the timed loop: each connection's probe,
   and per kernel a [source] at another verify size, whose bounds every
   enlarged source of that kernel must repeat. *)
let references srv refs =
  let c = connect srv in
  for i = 0 to connections - 1 do
    let line = (probe i).line in
    Hashtbl.replace refs line (rpc c line)
  done;
  List.iter
    (fun k ->
      Hashtbl.replace refs ("source:" ^ k)
        (rpc c (source_req ~id:("ref-" ^ k) ~kernel:k (13, 12)).line))
    W_derive.enlarged_kernels;
  Client.close c

(* ---- closed loop ---- *)

type sample = { req : req; resp : string; lat_s : float }

let client ~seed ~srv ~deadline c =
  let conn = connect srv in
  let rec go j acc =
    if Clock.now_ns () >= deadline then List.rev acc
    else
      let req = request ~seed c j in
      let t0 = Clock.now_ns () in
      let resp = rpc conn req.line in
      go (j + 1) ({ req; resp; lat_s = Clock.since_s t0 } :: acc)
  in
  let samples = go 0 [] in
  Client.close conn;
  samples

let drive ctx srv =
  let t0 = Clock.now_ns () in
  let deadline = t0 + int_of_float (ctx.seconds *. 1e9) in
  (* Threads, not domains: the clients only block on their sockets, and
     the traced pass forks afterwards, which OCaml forbids once a domain
     has been spawned. *)
  let results = Array.make connections [] in
  let threads =
    List.init connections (fun c ->
        Thread.create (fun () -> results.(c) <- client ~seed:ctx.seed ~srv ~deadline c) ())
  in
  List.iter Thread.join threads;
  let samples = List.concat (Array.to_list results) in
  (samples, Clock.since_s t0)

let member path j =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

let body line =
  match Protocol.parse_response line with
  | Ok r when r.Protocol.ok -> Some r.Protocol.body
  | _ -> None

let check_sample refs { req; resp; _ } =
  attempt ();
  checking @@ fun () ->
  match body resp with
  | None -> fail "%s: error response %s" (kind_name req.kind) resp
  | Some b -> (
      match req.kind with
      | Analyze | Probe ->
          check (resp = Hashtbl.find refs req.line) "repeated %s: response bytes changed" req.line
      | Eval ->
          check
            (member [ "m" ] b = Some (Json.Int req.m) && member [ "n" ] b = Some (Json.Int req.n)
            && member [ "s" ] b = Some (Json.Int req.s))
            "eval %s: wrong point echoed" req.kernel
      | Source ->
          let r = Option.get (body (Hashtbl.find refs ("source:" ^ req.kernel))) in
          check
            (member [ "bounds" ] b = member [ "bounds" ] r
            && member [ "hourglasses" ] b = member [ "hourglasses" ] r)
            "source %s at %dx%d: bounds differ from another verify size" req.kernel req.m req.n
      | Empirical -> (
          let f k = match member [ "empirical"; "loads"; k ] b with Some (Json.Float x) -> Some x | Some (Json.Int i) -> Some (float_of_int i) | _ -> None in
          match (f "lo", f "est", f "hi") with
          | Some lo, Some est, Some hi -> check (lo <= est && est <= hi) "empirical %dx%d: estimate outside its interval" req.m req.n
          | _ -> fail "empirical %dx%d: no loads estimate" req.m req.n))

let run ctx =
  let reps = 3 in
  let times = ref [] and last = ref None in
  for rep = 0 to reps - 1 do
    Option.iter (fun (srv, _) -> stop srv) !last;
    let r, dt = Clock.time (fun () -> setup ctx rep) in
    times := dt :: !times;
    last := Some r
  done;
  let srv, refs = Option.get !last in
  metric "setup_s" "s" (Stats.median !times);
  Fun.protect ~finally:(fun () -> stop srv) @@ fun () ->
  references srv refs;
  let samples, elapsed = drive ctx srv in
  metric "peak_rss_mb" "MB" (float_of_int (vm_hwm_kb srv.pid) /. 1024.);
  List.iter (check_sample refs) samples;
  report_latency ~ops:(List.length samples) ~elapsed ~lat_s:(List.map (fun s -> s.lat_s) samples)

(* ---- traced pass ---- *)

module D = Iolb.Derive
module Front = Iolb_front.Front
module Sweep = Iolb_pebble.Sweep

(* The [source] op: parse, a detection pass to count hourglasses, the
   ladder, then the wire rendering. *)
let replay_source req =
  let budget = Replay.budget () in
  let src =
    Span.with_ "front.parse" (fun () ->
        match Front.parse_string ~file:"<source>" req.src with
        | Ok s -> s
        | Error _ -> failwith "source does not parse")
  in
  let p = src.Front.program and params = src.Front.verify in
  let hourglasses =
    Span.with_ "core.verify" (fun () ->
        List.length (Iolb.Hourglass.detect_verified ~budget ~params p))
  in
  let o = Replay.ladder ~budget ~verify_params:params p in
  let op = Protocol.Source { src = req.src; budget = Protocol.no_budget } in
  let spec = Protocol.spec_hash (Option.get (Protocol.spec_key op ~display:"")) in
  let result =
    Span.with_ "core.render" (fun () ->
        Json.to_string
          (Protocol.source_result ~spec ~kernel:p.Iolb_ir.Program.name ~hourglasses o))
  in
  Replay.count_steps budget;
  result

(* An [eval] with an empirical rider: the analysis, the sampled sweep at
   the evaluation point, and the wire rendering. *)
let replay_empirical req =
  let budget = Replay.budget () in
  let e = R.find req.kernel in
  let a = Replay.builtin ~budget e in
  let params = Replay.ok_exn (R.concrete_params e ~m:req.m ~n:req.n) in
  let rate = 0.01 and seed = 7 in
  let sampled =
    Span.with_ "pebble.sampled" (fun () ->
        Replay.ok_exn (Sweep.run_sampled_checked ~budget ~rate ~seed ~params e.R.program))
  in
  Span.count "pebble.sampled_total" (Sweep.sampled_total_accesses sampled);
  let estimate (x : Sweep.estimate) =
    Json.Obj [ ("est", Json.Float x.Sweep.est); ("lo", Json.Float x.Sweep.lo); ("hi", Json.Float x.Sweep.hi) ]
  in
  let loads, read_hits, stores = Sweep.sampled_stats sampled ~size:req.s in
  let empirical =
    Json.Obj
      [ ("rate", Json.Float rate); ("seed", Json.Int seed);
        ("exact", Json.Bool (Sweep.sampled_exact sampled));
        ("total_accesses", Json.Int (Sweep.sampled_total_accesses sampled));
        ("kept_accesses", Json.Int (Sweep.sampled_kept_accesses sampled));
        ("degenerate", Json.Bool (Sweep.sampled_degenerate sampled));
        ("loads", estimate loads); ("read_hits", estimate read_hits); ("stores", estimate stores) ]
  in
  let op =
    Protocol.Eval
      { kernel = req.kernel; m = req.m; n = req.n; s = req.s;
        empirical = Some { Protocol.rate; seed }; budget = Protocol.no_budget }
  in
  let spec = Protocol.spec_hash (Option.get (Protocol.spec_key op ~display:e.R.display)) in
  let result =
    Span.with_ "core.render" (fun () ->
        Json.to_string (Protocol.eval_result ~empirical ~spec a ~m:req.m ~n:req.n ~s:req.s))
  in
  Replay.count_steps budget;
  result

let result_of resp =
  match Protocol.parse_response resp with
  | Ok r when r.Protocol.ok -> Some (Json.to_string r.Protocol.body)
  | _ -> None

let traced ctx =
  let srv, refs = setup ctx 0 in
  let samples, stats =
    Fun.protect ~finally:(fun () -> stop srv) @@ fun () ->
    references srv refs;
    let samples, _ = drive ctx srv in
    let c = connect srv in
    let stats = rpc c {|{"id":"stats","op":"stats"}|} in
    Client.close c;
    (samples, stats)
  in
  List.iter (check_sample refs) samples;
  let med kinds =
    Stats.median
      (List.filter_map (fun s -> if List.mem s.req.kind kinds then Some (s.lat_s *. 1000.) else None) samples)
  in
  metric "serve.analyze_ms" "ms" (med [ Analyze ]);
  metric "serve.eval_ms" "ms" (med [ Eval; Probe ]);
  metric "serve.source_ms" "ms" (med [ Source ]);
  metric "serve.empirical_ms" "ms" (med [ Empirical ]);
  let stat path =
    match Option.bind (body stats) (member path) with Some (Json.Int i) -> float_of_int i | _ -> 0.
  in
  let ratio h m = if h +. m > 0. then h /. (h +. m) else 0. in
  let hits = stat [ "cache"; "hits" ] and misses = stat [ "cache"; "misses" ] in
  metric "serve.cache_hits" "count" hits;
  metric "serve.cache_misses" "count" misses;
  metric "serve.cache_hit_ratio" "ratio" (ratio hits misses);
  metric "serve.evictions" "count" (stat [ "cache"; "evictions" ]);
  metric "serve.memo_hit_ratio" "ratio" (ratio (stat [ "memo"; "hits" ]) (stat [ "memo"; "misses" ]));
  metric "serve.shed" "count" (stat [ "requests"; "shed" ]);
  (* Request decoding over every line of the mix. *)
  let lines = List.map (fun s -> s.req.line) samples in
  let (), parse_s =
    Clock.time (fun () -> List.iter (fun l -> ignore (Protocol.parse_request l)) lines)
  in
  metric "serve.parse_us" "us" (parse_s *. 1e6 /. float_of_int (max 1 (List.length lines)));
  (* Replay the first two sources and the first empirical request. *)
  let pick kind k =
    List.filteri (fun i _ -> i < k) (List.filter (fun s -> s.req.kind = kind) samples)
  in
  let ops =
    List.map
      (fun s ->
        let f = if s.req.kind = Source then replay_source else replay_empirical in
        (kind_name s.req.kind, s.lat_s, fun () -> Some (f s.req) = result_of s.resp))
      (pick Source 2 @ pick Empirical 1)
  in
  Trace_run.replay ~ops;
  let total =
    float_of_int (Option.value ~default:0 (List.assoc_opt "pebble.sampled_total" (Span.counts_sorted ())))
  in
  let ms = Span.total_ms "pebble.sampled" in
  metric "pebble.sampled_eff_per_s" "1/s" (if ms > 0. then total /. (ms /. 1000.) else 0.)
