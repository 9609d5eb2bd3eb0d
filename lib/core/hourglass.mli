(** Detection of the hourglass dependency pattern (Section 3 of the paper).

    An hourglass is carried by an update (broadcast) statement [U] and a
    reduction statement [R]: [R] reduces values written by [U] across the
    reduction dimensions, and the reduced value is broadcast back to every
    instance of [U] at the next temporal iteration, forcing any convex
    K-bounded set spanning several temporal iterations to contain whole
    reduction lines.

    Dimension classification, given [U]'s write access [wU] and the
    broadcast-value read [b] (the read of [R]'s result):
    - reduction dimensions: [dims(wU) \ dims(b)];
    - neutral dimensions: [dims(wU) /\ dims(b)];
    - temporal dimensions: [dims(U) \ dims(wU)].

    The width [W] is the product over reduction dimensions of the minimal
    trip count across the domain ({!Iolb_ir.Program.extent_min}); the
    pattern requires [W] to be parametric (criterion 3 of Section 3.2) -
    this check is what rejects the unsplit GEHD2 program and accepts its
    split first half, reproducing Section 5.3. *)

type t = {
  update_stmt : string;  (** the broadcast statement [U] (e.g. [SU]) *)
  reduction_stmt : string;  (** the reduction statement [R] (e.g. [SR]) *)
  temporal : string list;
  reduction : string list;
  neutral : string list;
  width : Iolb_poly.Affine.t list;
      (** one minimal-extent expression per reduction dimension, in
          parameters only; [W] is their product *)
}

(** Product of the per-dimension widths. *)
val width_poly : t -> Iolb_symbolic.Polynomial.t

(** [detect p] finds every hourglass of the program, deduplicated by update
    statement and classification.  Patterns whose width is constant are
    rejected (criterion 3). *)
val detect : Iolb_ir.Program.t -> t list

(** [detect_verified ~params p] keeps only the candidates whose dependence
    chains are confirmed by {!verify} on the concrete CDAG at [params].
    This is the production entry point: {!detect} generates candidates from
    access shapes, the pebble-level check prunes the spurious ones.  The
    CDAG is built once (charging one [Cdag_build] step per statement
    instance) and shared by every candidate; no CDAG is built when
    {!detect} finds no candidate. *)
val detect_verified :
  ?budget:Iolb_util.Budget.t -> params:(string * int) list -> Iolb_ir.Program.t -> t list

(** [verify cdag p h] checks the pattern empirically on [cdag], the
    concrete CDAG of [p]: for instances of the update statement with equal
    neutral coordinates and consecutive temporal coordinates, there is a
    dependence path from the earlier to the later instance for every pair
    of reduction coordinates sampled.  Returns false if any sampled pair
    lacks a path.  One [Derivation] budget checkpoint per sampled pair. *)
val verify :
  ?budget:Iolb_util.Budget.t ->
  Iolb_cdag.Cdag.t ->
  Iolb_ir.Program.t ->
  t ->
  bool

val pp : Format.formatter -> t -> unit
