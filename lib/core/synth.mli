(** Optimal synthesis driver — Section III's outer loop.

    One [solve_instance] call builds Φ(f, N_V, N_R) for fixed dimensions and
    answers SAT (with a decoded, re-verified circuit), UNSAT (an optimality
    certificate for these dimensions) or TIMEOUT (budget exhausted, like the
    "≤" rows of Table IV). [minimize] iterates the paper's strategy: find the
    smallest N_R admitting a solution, then the smallest N_VS for that
    N_R. *)

module Spec = Mm_boolfun.Spec

type verdict = Ladder.verdict =
  | Sat of Circuit.t
  | Unsat
  | Timeout

(** On the incremental path ({!minimize} with [~incremental:true], the
    default) [vars]/[clauses] are those of the shared ladder encoding —
    identical for every attempt solved on the same ladder instance — and
    [solver_stats] carries per-call deltas; see {!Ladder.attempt}. *)
type attempt = Ladder.attempt = {
  n_legs : int;
  steps_per_leg : int;
  n_rops : int;
  verdict : verdict;
  vars : int;  (** solver-facing (compact) formula variables *)
  clauses : int;
  time_s : float;
  solver_stats : Mm_sat.Solver.stats;
}

(** The paper sets N_L = N_R + N_O (N_R + N_O − 1 for adders, whose carry
    comes from a V-leg). [default_legs] implements N_R + N_O; pass
    [~adder:true] for the adder variant. *)
val default_legs : ?adder:bool -> Spec.t -> n_rops:int -> int

(** [solve_instance cfg spec] encodes (compact style recommended), solves
    under [timeout] seconds, decodes and re-verifies any model against
    [spec] on all rows (raising [Failure] on an encoder/decoder
    inconsistency — this never fires in the test suite). *)
val solve_instance : ?timeout:float -> Encode.config -> Spec.t -> attempt

type report = {
  best : (Circuit.t * attempt) option;
  attempts : attempt list;  (** chronological *)
  rops_proven_minimal : bool;  (** all smaller N_R proved UNSAT in budget *)
  steps_proven_minimal : bool;
}

(** Mixed-mode minimization. [max_rops]/[max_steps] bound the search
    (defaults: [max_rops] from the NOR-network baseline via {!Baseline},
    [max_steps = arity + 2]); [legs_of n_rops] sets N_L (default
    {!default_legs}); [taps] defaults to the paper-faithful
    {!Encode.Any_vop} (pass {!Encode.Final_only} for directly schedulable
    results — the paper's dimension claims are only reachable with
    [Any_vop]).

    [symmetry_breaking] (default on) forwards to {!Encode.config}: the
    commutative-input and leg-ordering constraints prune equivalent models
    without changing any verdict or minimum (pinned by the test suite).

    Incrementality: with [incremental] (the default) both phases run as
    assumption-restricted budget points of a shared {!Ladder} encoding on
    one solver — learned clauses and VSIDS activity carry across the whole
    sweep, and every UNSAT under assumptions remains a per-budget
    optimality certificate. The shared encoding is sized for the budgets
    actually visited: it starts near the bottom of the sweep and is
    rebuilt exactly as far as the requested point when the sweep climbs
    past its caps (an encoding at the worst-case budgets would tax every
    propagation of every point). [~incremental:false] retains the
    fresh-solver-per-point monolithic path as a differential-testing
    oracle ([make smoke-ladder] diffs the two).

    Result reuse: dimensions already answered inside this call (possible
    when a custom [legs_of] maps different N_R to identical N_L) are never
    re-solved — in particular a cached UNSAT at (N_R, N_VS) is reused as an
    optimality certificate. [lookup]/[store] extend the same memoization
    across calls: every solver call first consults [lookup cfg] (e.g. a
    persistent [Mm_engine.Cache]) and reports fresh results to [store].
    Attempts satisfied by [lookup] still appear in [attempts] with their
    original statistics. *)
val minimize :
  ?timeout_per_call:float ->
  ?max_rops:int ->
  ?max_steps:int ->
  ?legs_of:(int -> int) ->
  ?rop_kind:Rop.kind ->
  ?taps:Encode.taps ->
  ?symmetry_breaking:bool ->
  ?incremental:bool ->
  ?lookup:(Encode.config -> attempt option) ->
  ?store:(Encode.config -> attempt -> unit) ->
  Spec.t ->
  report

(** R-only minimization (N_V = 0): decrease N_R from the baseline bound.
    Shares {!minimize}'s cache hooks ([lookup]/[store] — R-only sweeps hit
    the same [Mm_engine.Cache] keyspace via their 0-leg configs), its
    [symmetry_breaking] default and its [incremental] ladder path. *)
val minimize_r_only :
  ?timeout_per_call:float ->
  ?max_rops:int ->
  ?rop_kind:Rop.kind ->
  ?symmetry_breaking:bool ->
  ?incremental:bool ->
  ?lookup:(Encode.config -> attempt option) ->
  ?store:(Encode.config -> attempt -> unit) ->
  Spec.t ->
  report

val pp_attempt : Format.formatter -> attempt -> unit
