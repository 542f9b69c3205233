(** On-demand library of synthesized blocks, one per cut function.

    The mapper prices cuts by asking this library for a circuit realizing
    the cut's (arity ≤ 4) truth table. A lookup first consults an in-process
    memo, then runs {!Mm_engine.Engine.probe_class} — the engine's resolver:
    canonicalize → atlas tier → persistent cache → SAT minimize → pull back
    → verify — with the baseline {!Mm_engine.Engine.fallback}, so every
    lookup returns {e some} verified block (the QMC→NOR network when the
    budget expires). Entries carry the engine's provenance tags
    ([exact]/[optimal]) so the stitched result can report per-block
    optimality exactly like batch results do.

    Two block kinds, forced by the physics of the line array: V-op
    electrodes are driven by primary-input literals only, so a block whose
    leaves are intermediate AIG nodes must be [R_only] (0 legs, literal
    R-op inputs the stitcher re-sources onto signals); a block whose leaves
    are all primary inputs may use the full [Mixed] V+R repertoire. *)

module Tt = Mm_boolfun.Truth_table
module Engine = Mm_engine.Engine

type kind = Mixed | R_only

type entry = {
  tt : Tt.t;  (** the block-local function (variables [x1..xm]) *)
  kind : kind;
  circuit : Mm_core.Circuit.t;  (** realizes [tt]; 0 legs when [R_only] *)
  class_rep : Tt.t option;  (** NPN representative, when canonicalized *)
  exact : bool;  (** SAT pipeline answer (vs baseline fallback) *)
  optimal : bool;  (** both minimality proofs completed in budget *)
  legs : int;
  steps : int;  (** V-steps per leg *)
  rops : int;
}

type t

(** [create cfg] — an empty library probing through [cfg] (its [cache],
    [timeout_per_call], bounds and [incremental] flag drive every probe;
    its [fallback] is ignored: a block the probe cannot answer exactly is
    always the baseline). *)
val create : Engine.config -> t

(** Memoized probe; never fails under the NOR R-op kind (baseline
    fallback) and raises [Invalid_argument] when no verified block exists
    (another R-op kind with the budget gone). The table's arity must be
    ≥ 1 and ≤ 4. *)
val lookup : t -> kind -> Tt.t -> entry

(** All distinct entries probed so far. *)
val entries : t -> entry list

(** (lookups, memo hits, exact blocks, fallback blocks) so far. *)
val stats : t -> int * int * int * int
