(* Every per-layer metric the traced pass reports, in BENCHMARK.json
   order.  [Span s]: inclusive time in spans named [s]; [Count c]: an
   exact work count; [Derived]: computed by the workload.  A metric whose
   layer a workload does not exercise reads 0. *)

type source = Span of string | Count of string | Derived

(* The oracles [certify] runs: the default registry minus [jobs-det] and
   [sweep-stream], which spawn worker domains on every spec. *)
let oracles =
  [ "card"; "iset-ref"; "cdag"; "footprint"; "phi"; "bound-le-opt";
    "monotone-s"; "sweep-lru"; "game-compiled"; "sampled-ci";
    "hourglass-path"; "split-regions"; "region-cover"; "parse-roundtrip";
    "parse-derive" ]

let span name = (name ^ "_ms", "ms", Span name)

let all =
  [ ("cli.startup_ms", "ms", Derived);
    ("cli.game_ms", "ms", Derived);
    ("cli.file_game_ms", "ms", Derived);
    ("cli.file_game_ratio", "ratio", Derived);
    ("cli.sweep_ms", "ms", Derived);
    ("cli.stream_ms", "ms", Derived);
    ("cli.sampled_ms", "ms", Derived);
    span "front.parse"; span "front.resolve";
    span "core.ladder"; span "core.detect"; span "core.verify";
    span "core.hourglass"; span "core.classical"; span "core.render";
    span "core.split";
    ("cdag.verify_nodes", "count", Count "cdag.verify_nodes");
    ("steps.poly_projection", "count", Count "steps.poly_projection");
    ("steps.derivation", "count", Count "steps.derivation");
    ("steps.cdag_build", "count", Count "steps.cdag_build");
    ("steps.pebble_game", "count", Count "steps.pebble_game");
    ("steps.cache_sim", "count", Count "steps.cache_sim");
    span "cdag.build";
    ("cdag.nodes", "count", Count "cdag.nodes");
    span "pebble.game";
    ("pebble.game_loads", "count", Count "pebble.game_loads");
    span "ir.trace";
    ("ir.trace_events", "count", Count "ir.trace_events");
    span "pebble.sweep";
    ("pebble.sweep_events_per_s", "1/s", Derived);
    span "pebble.opt_plan"; span "pebble.opt_run";
    ("pebble.opt_runs", "count", Count "pebble.opt_runs");
    span "pebble.stream_j1"; span "pebble.stream_j2";
    ("pebble.shard_speedup", "ratio", Derived);
    span "pebble.sampled";
    ("pebble.sampled_eff_per_s", "1/s", Derived);
    ("serve.parse_us", "us", Derived);
    ("serve.analyze_ms", "ms", Derived);
    ("serve.eval_ms", "ms", Derived);
    ("serve.source_ms", "ms", Derived);
    ("serve.empirical_ms", "ms", Derived);
    ("serve.cache_hit_ratio", "ratio", Derived);
    ("serve.cache_hits", "count", Derived);
    ("serve.cache_misses", "count", Derived);
    ("serve.evictions", "count", Derived);
    ("serve.memo_hit_ratio", "ratio", Derived);
    ("serve.shed", "count", Derived);
    span "check.gen"; span "check.cover"; span "check.ctx" ]
  @ List.map (fun o -> span ("check.oracle." ^ o)) oracles
  @ [ ("check.passed", "count", Count "check.passed");
      ("check.skipped", "count", Count "check.skipped");
      ("tracing_overhead_frac", "frac", Derived) ]
