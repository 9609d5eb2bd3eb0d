(* certify: one client runs [iolb check --count 4 --seed S --props P]
   commands, each on the next seeds of a run-level base.  It is the
   workload that runs lib/check (generator, oracles, shrinker) and the
   reference engines behind the oracles.

   P is 15 of the 17 default oracles, and IOLB_JOBS=1 pins the rest to one
   domain.  [jobs-det] and [sweep-stream] spawn worker domains for every
   spec and take about 70% of a default run.  On a two-core host shared
   with other tenants, one busy core halves the throughput of a default
   run but leaves this one unchanged.  Sharding itself is measured by the
   streamed sweep of [simulate]. *)

open Common
module Json = Iolb_util.Json
module Oracle = Iolb_check.Oracle

let specs_per_command = 4
let base ctx = 1 + (ctx.seed mod 100_000 * 10_007)
let seed_of ctx j = base ctx + (j * specs_per_command)

let props = List.filter (fun (o : Oracle.t) -> List.mem o.Oracle.name Layers.oracles) Oracle.all

let args ctx j =
  [ "check"; "--count"; string_of_int specs_per_command; "--seed";
    string_of_int (seed_of ctx j); "--props"; String.concat "," Layers.oracles;
    "--quiet"; "--json"; "-" ]

(* Inherited by every command and by the forked replays. *)
let single_domain () = Unix.putenv "IOLB_JOBS" "1"

let field name json =
  match Json.member name json with Some (Json.Int i) -> i | _ -> -1

(* A command passes when it found no counterexample and every (spec,
   oracle) pair was decided.  Returns (passed, skipped). *)
let run_op ctx j =
  attempt ();
  let r = cli ctx (args ctx j) in
  let desc = String.concat " " (args ctx j) in
  let counts =
    if r.Proc.code <> 0 then (fail "%s: exit %d: %s" desc r.Proc.code r.Proc.err; None)
    else
      match Json.of_string r.Proc.out with
      | Ok json ->
          let passed = field "passed" json and skipped = field "skipped" json in
          check (field "failed" json = 0) "%s: counterexamples found" desc;
          check
            (passed + skipped = specs_per_command * List.length props)
            "%s: %d passed + %d skipped is not every (spec, oracle) pair" desc passed skipped;
          Some (passed, skipped)
      | Error e -> fail "%s: unparsable report: %s" desc e; None
  in
  (r, counts)

let setup ctx _ =
  let r = cli ctx [ "list" ] in
  if r.Proc.code <> 0 then failwith "iolb list failed"

let run ctx =
  single_domain ();
  let (), setup_s = timed_setup ~reps:9 (setup ctx) in
  metric "setup_s" "s" setup_s;
  let rss = ref 0 in
  let lat, elapsed =
    closed_loop ~seconds:ctx.seconds ~cycle:(fun j -> [ j ]) (fun j ->
        let r, _ = run_op ctx j in
        rss := max !rss r.Proc.rss_kb;
        r.Proc.wall_s)
  in
  (* ops_per_s counts specs certified. *)
  report_latency ~ops:(List.length lat * specs_per_command) ~elapsed ~lat_s:lat;
  metric "peak_rss_mb" "MB" (float_of_int !rss /. 1024.)

(* [Check.run] per spec: generate, the coverage pass (hourglass-family
   specs force detection and derivation), then for every oracle a fresh
   context and the oracle itself. *)
let replay_spec seed =
  let spec, _ =
    Span.with_ "check.gen" (fun () ->
        let spec = Iolb_check.Gen.spec ~seed in
        (spec, Iolb_check.Spec.to_program spec))
  in
  (match spec with
  | Iolb_check.Spec.Nest _ -> ()
  | Iolb_check.Spec.Hourglass _ ->
      Span.with_ "check.cover" (fun () ->
          let budget = Replay.budget () in
          let ctx = Oracle.make_ctx ~budget spec in
          ignore (Oracle.ctx_hourglasses ctx, Oracle.ctx_bounds ctx);
          Replay.count_steps budget));
  List.fold_left
    (fun (passed, skipped) (o : Oracle.t) ->
      let budget = Replay.budget () in
      let ctx = Span.with_ "check.ctx" (fun () -> Oracle.make_ctx ~budget spec) in
      let outcome = Span.with_ ("check.oracle." ^ o.Oracle.name) (fun () -> Oracle.run o ctx) in
      Replay.count_steps budget;
      match outcome with
      | Oracle.Pass -> Span.count "check.passed" 1; (passed + 1, skipped)
      | Oracle.Skip _ -> Span.count "check.skipped" 1; (passed, skipped + 1)
      | Oracle.Fail _ -> (passed, skipped))
    (0, 0) props

let traced ctx =
  single_domain ();
  setup ctx 0;
  let commands = 20 in
  let ops =
    List.init commands (fun j ->
        let r, counts = run_op ctx j in
        let thunk () =
          let seeds = List.init specs_per_command (fun k -> seed_of ctx j + k) in
          let sums =
            List.fold_left
              (fun (p, s) seed ->
                let p', s' = replay_spec seed in
                (p + p', s + s'))
              (0, 0) seeds
          in
          counts = Some sums
        in
        ("check", r.Proc.wall_s, thunk))
  in
  Trace_run.replay ~ops
