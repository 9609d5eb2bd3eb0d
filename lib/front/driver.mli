(** Analysis driver for parsed programs and built-in kernels: the single
    subject-resolution and rendering path behind [iolb analyze], [iolb
    bounds --file], [iolb simulate], the bound service's [source] op and
    the differential tests.

    Byte-identity contract: for a source file that {!resolve}s to a built-in
    registry entry, {!render_source} produces exactly the bytes [iolb
    analyze <name>] (with [logs:true]) or the kernel's section of [iolb
    bounds] (with [logs:false]) prints today; for any other well-formed
    source it produces the graceful-degradation ladder report the CLI
    prints for baselines. *)

(** [resolve src] is the registry entry whose program is
    {!Iolb_ir.Program.equal} to the parsed one with the same verify
    bindings, if any.  Resolution is structural: renaming a statement or
    perturbing a bound makes a source a custom program, never a mislabelled
    built-in. *)
val resolve : Front.source -> Iolb.Report.entry option

(** {1 Subjects} *)

(** The derivation behind a subject. *)
type analysis =
  | Builtin of Iolb.Report.analysis
      (** the input resolved to a registry entry ([a.entry]): its full
          paper analysis, finalized formulas included *)
  | Derived of {
      hourglasses : Iolb.Hourglass.t list;
          (** patterns the ladder's hourglass rung verified *)
      outcome : Iolb.Derive.outcome;
    }  (** any other program: the graceful-degradation ladder *)

(** One command's input, resolved and analysed once.  The bounds are
    parametric formulas derived at [verify], the witness sizes of the
    source's [verify] clause (or of the registry entry); [run] are the
    sizes the command instantiates the program at.  The two never mix:
    growing the run sizes grows the CDAG, trace or game, not the
    hourglass verification. *)
type subject = {
  program : Iolb_ir.Program.t;
  verify : (string * int) list;
  run : (string * int) list;
  analysis : analysis;
}

(** [of_entry ~budget ?run entry] analyses a registry entry; [run]
    defaults to its verify sizes. *)
val of_entry :
  budget:Iolb_util.Budget.t ->
  ?run:(string * int) list ->
  Iolb.Report.entry ->
  (subject, Iolb_util.Engine_error.t) result

(** [of_source ~budget ?run src] resolves [src] against the registry and
    analyses it at its verify sizes.  [run] lists per-parameter overrides
    of those sizes (the last binding of a name wins).  When it is given,
    even empty, every overridden name must be a parameter and the
    resulting run sizes must satisfy the program's [assume] constraints,
    else [Invalid_input] naming the violated constraint and its
    parameters.  Without [run], the run sizes are the verify sizes,
    unchecked: a command that only derives never instantiates them. *)
val of_source :
  budget:Iolb_util.Budget.t ->
  ?run:(string * int) list ->
  Front.source ->
  (subject, Iolb_util.Engine_error.t) result

(** The verified hourglass patterns behind the subject's bounds. *)
val hourglasses : subject -> Iolb.Hourglass.t list

(** The subject's bounds and degradation note as a ladder outcome
    (finalized formulas for a built-in). *)
val outcome : subject -> Iolb.Derive.outcome

(** [bound_lines subject ~params ~s] are the labelled lower bounds at a
    point: a built-in's best ["classical"] and best ["hourglass"] bound,
    any other program's best ["derived"] bound.  A label without an
    applicable bound is omitted. *)
val bound_lines :
  subject -> params:(string * int) list -> s:int -> (string * float) list

(** Prints ["degraded: <why>"] when the analysis degraded, else nothing. *)
val pp_degradation : Format.formatter -> subject -> unit

(** {1 Rendering} *)

(** [render_analysis ~logs a] renders a registry analysis; [logs] appends
    each bound's derivation log lines as [iolb analyze] does. *)
val render_analysis : logs:bool -> Iolb.Report.analysis -> string

(** [render_outcome ~logs o] renders a ladder outcome (degradation line,
    the no-bound notice, then each bound). *)
val render_outcome : logs:bool -> Iolb.Derive.outcome -> string

(** [render ~logs subject] is the subject's [bounds]/[analyze] report. *)
val render : logs:bool -> subject -> string

(** [render_kernel ~budget ~logs name] is the report for a built-in kernel
    name: registry first, then baselines, then the unknown-kernel error. *)
val render_kernel :
  budget:Iolb_util.Budget.t ->
  logs:bool ->
  string ->
  (string, Iolb_util.Engine_error.t) result

val render_source :
  budget:Iolb_util.Budget.t ->
  logs:bool ->
  Front.source ->
  (string, Iolb_util.Engine_error.t) result

(** [render_file ~budget ~logs path] parses [path] and renders it. *)
val render_file :
  budget:Iolb_util.Budget.t ->
  logs:bool ->
  string ->
  (string, Iolb_util.Engine_error.t) result

(** [play_games ~budget ~s ~seed subject ppf] prints what [iolb simulate]
    prints without [--sizes]: the CDAG statistics at the run sizes, the
    degradation note, the program-order and seeded random-order pebble
    games at cache size [s], and {!bound_lines} at the run sizes. *)
val play_games :
  budget:Iolb_util.Budget.t ->
  s:int ->
  seed:int ->
  subject ->
  Format.formatter ->
  (unit, Iolb_util.Engine_error.t) result

(** [describe src] is a one-line structural summary for [iolb check
    --parse]: parameter/statement/dependence-relation counts plus the
    resolved built-in name when the program matches one. *)
val describe : Front.source -> string
