(** Concrete computational DAGs (CDAGs).

    A CDAG instantiates a polyhedral program at concrete parameter values:
    one node per statement instance (plus one per input cell read before
    written), one edge per flow (read-after-write) dependence.  This is the
    board of the red-white pebble game (Section 2 of the paper) and the
    object on which the hourglass properties are validated empirically. *)

type kind =
  | Input of string * int array  (** an input array cell *)
  | Compute of string * int array  (** statement name, iteration vector *)

type t

(** [of_program ~params p] builds the CDAG by abstract execution with
    last-writer tracking: reads resolve to the most recent write of the same
    cell in program order, which is the exact flow dependence for these
    (deterministic, unconditionally executed) programs.  Cells and
    statement instances are interned to dense ids ({!Iolb_ir.Interner})
    during the build, so dependence resolution and instance lookup run on
    int-indexed arrays rather than hashing [(string * int array)] keys.

    One [Cdag_build] budget checkpoint is accounted per statement instance,
    and the budget's node cap bounds the total node count of this CDAG.
    The result is immutable and safe to share read-only across a
    {!Iolb_util.Pool} fan-out.
    @raise Iolb_util.Budget.Exhausted when the budget runs out. *)
val of_program :
  ?budget:Iolb_util.Budget.t -> params:(string * int) list -> Iolb_ir.Program.t -> t

(** [of_program_checked] is {!of_program} behind the no-raise boundary:
    budget exhaustion and malformed inputs come back as typed errors. *)
val of_program_checked :
  ?budget:Iolb_util.Budget.t ->
  params:(string * int) list ->
  Iolb_ir.Program.t ->
  (t, Iolb_util.Engine_error.t) result

val n_nodes : t -> int
val kind : t -> int -> kind

(** Predecessors (the values a node consumes), as node ids. *)
val preds : t -> int -> int array

val succs : t -> int -> int array

(** [preds_csr t] is the whole predecessor relation in CSR form,
    [(offsets, flat)]: node [id]'s predecessors are
    [flat.(offsets.(id)) .. flat.(offsets.(id + 1) - 1)], in the same
    order {!preds} returns them.  [offsets] has length [n_nodes t + 1].
    Built once with the CDAG; engines whose inner loops walk edges per
    scheduled node (the pebble game) index one contiguous array instead
    of chasing per-node pointers.  Never mutate the returned arrays. *)
val preds_csr : t -> int array * int array

(** [succs_csr t] is the successor relation in CSR form; see
    {!preds_csr}. *)
val succs_csr : t -> int array * int array

(** Node ids in a valid topological (= program) order, inputs first at their
    first use point.  Node ids are assigned in this order, so it is the
    identity: every edge goes from a lower to a higher id (an input node is
    created at its first read, before its reader; a compute node after all
    of its predecessors).  {!reaches} relies on this invariant. *)
val program_order : t -> int array

(** All node ids of instances of the given statement. *)
val nodes_of_stmt : t -> string -> int list

(** [node_of_instance t name vec] finds the compute node for one instance. *)
val node_of_instance : t -> string -> int array -> int option

val n_inputs : t -> int
val n_computes : t -> int

(** A reusable reachability oracle over one CDAG.  Visited marks are
    epoch-stamped and the DFS stack is kept across queries, so repeated
    queries (e.g. hourglass verification over many instance pairs)
    allocate nothing after the first. *)
type reachability

val reachability : t -> reachability

(** [reaches r a b]: is there a directed path from [a] to [b] in the
    oracle's CDAG?  Since edges go from lower to higher ids, [a > b] answers
    [false] without a search, and the DFS never enters a node whose id
    exceeds [b].  No per-query allocation.  Not thread-safe: use one oracle
    per domain. *)
val reaches : reachability -> int -> int -> bool

(** [convex_closure t nodes] adds every node lying on a directed path
    between two nodes of [nodes] - the convexity completion used when
    reasoning about K-bounded sets. *)
val convex_closure : t -> int list -> int list

(** [inset t nodes] is the number of distinct values consumed by [nodes] but
    produced outside [nodes] (the InSet of the paper). *)
val inset : t -> int list -> int

val pp_stats : Format.formatter -> t -> unit
