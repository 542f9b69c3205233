(** Construction of the synthesis formula Φ(f, N_V, N_R) — Section III-A.

    Two styles are provided:

    - {!Direct} transcribes the paper's Eqs. 4–10 literally: truth tables of
      literals and outputs become variables pinned by unit clauses (Eqs. 4
      and 9), V-op/R-op semantics are guarded by conjunctions of two
      selector variables (Eqs. 5 and 7), and the mutex µ of Eq. 3 is the
      pairwise encoding. Its variable/clause counts are the ones comparable
      with the paper's Table IV.
    - {!Compact} is an equisatisfiable reformulation used for actual
      solving: per-row electrode signal variables turn the quadratic
      selector-pair guards into linear implications, literal truth tables
      are folded in as constants, and wide mutexes may use the sequential
      encoding. It decodes to exactly the same circuit structure.

    Tap discipline: the paper's Eq. 7 lets an R-op input connect to {e any}
    of the N_V V-op results ({!Any_vop}); this can tap one leg at several
    distinct time points, which a single line-array device cannot expose —
    such circuits must be {!Circuit.physicalize}d (replica legs) before
    scheduling, and we verified the paper's 1-bit-adder dimensions (N_R=2,
    N_L=3) are achievable {e only} in this mode. {!Final_only} restricts
    taps to leg-final values, which is directly schedulable on N_L
    devices. *)

module Spec = Mm_boolfun.Spec
module Literal = Mm_boolfun.Literal
module Builder = Mm_cnf.Builder

type style = Direct | Compact

type taps = Final_only | Any_vop

type config = {
  n_legs : int;
  steps_per_leg : int;
  n_rops : int;
  rop_kind : Rop.kind;
  shared_be : bool;  (** line-array constraint: one BE rail per step *)
  style : style;
  taps : taps;
  symmetry_breaking : bool;
  allow_literal_rop_inputs : bool;
  forced_te : (int * int * Literal.t) list;  (** (leg, step, literal) *)
  forced_be : (int * Literal.t) list;  (** (step, literal) — shared BE *)
}

(** Solver-ready defaults: compact style, final taps, shared BE. Symmetry
    breaking defaults to {e off} at this layer ({!Synth.minimize} turns it
    on): ablation C (bench harness) measures its interaction with phase
    saving on these instance sizes, and keeping the raw encoding neutral
    lets that ablation keep comparing both polarities. *)
val config :
  ?rop_kind:Rop.kind ->
  ?shared_be:bool ->
  ?style:style ->
  ?taps:taps ->
  ?symmetry_breaking:bool ->
  ?allow_literal_rop_inputs:bool ->
  ?forced_te:(int * int * Literal.t) list ->
  ?forced_be:(int * Literal.t) list ->
  n_legs:int ->
  steps_per_leg:int ->
  n_rops:int ->
  unit ->
  config

(** An encoded instance: selector-variable tables plus the source lists
    they index, as needed to decode a model. *)
type t

(** [build builder cfg spec] emits Φ into [builder]. Raises
    [Invalid_argument] on inconsistent dimensions (e.g. outputs exceeding
    available sources). *)
val build : Builder.t -> config -> Spec.t -> t

(** Activation selectors for the incremental budget ladder ({!Ladder}): one
    variable per leg, per V-step (shared across legs) and per R-op, each
    vector chained [act(k+1) → act(k)] so a prefix assumption pins it.
    Assuming the first [k] variables of a vector true and the rest false
    restricts the max-budget formula to the exact sub-budget instance:
    deactivated steps on active legs are {e forced} to hold the previous
    state (a merely unconstrained suffix step could invent values the
    active prefix cannot produce — leg-final taps read the last row), and
    active R-ops and outputs may only select active sources. *)
type activation = {
  leg_act : int array;
  step_act : int array;
  rop_act : int array;
  live : int array array;
      (** [live.(l).(s)] is the defined product [leg_act.(l) ∧ step_act.(s)]
          — the single guard literal on every V-op semantics clause. *)
  susp : int array array;
      (** [susp.(l).(s)] is [leg_act.(l) ∧ ¬step_act.(s)] — the single guard
          literal on the forced-hold clauses of deactivated steps. *)
}

(** [build_with_activation builder cfg spec] emits Φ at the dimensions of
    [cfg] plus the activation machinery, returning the layout and the
    activation variables. Raises [Invalid_argument] unless
    [cfg.style = Compact]. *)
val build_with_activation : Builder.t -> config -> Spec.t -> t * activation

(** [decode t ~value] reconstructs the synthesized circuit from a model
    ([value] maps solver variables to booleans). Raises [Failure] if a
    selector group is not exactly-one (which would indicate an encoder
    bug). *)
val decode : t -> value:(int -> bool) -> Circuit.t

(** [decode_prefix t ~value ~n_legs ~steps_per_leg ~n_rops] decodes only the
    active prefix of a model obtained under activation assumptions: the
    first [n_legs] legs with their first [steps_per_leg] steps, and the
    first [n_rops] R-ops. The activation exclusion clauses guarantee every
    decoded source falls inside that prefix. Raises [Invalid_argument] if a
    dimension exceeds the encoded maximum. *)
val decode_prefix :
  t ->
  value:(int -> bool) ->
  n_legs:int ->
  steps_per_leg:int ->
  n_rops:int ->
  Circuit.t

(** Formula size of a configuration without solving: (variables, clauses). *)
val size : config -> Spec.t -> int * int
