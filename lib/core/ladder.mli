(** Incremental budget-ladder synthesis.

    The paper's outer loop (Table IV) proves optimality by answering
    Φ(f, N_V, N_R) at a ladder of operation budgets. The monolithic driver
    ({!Synth.solve_instance}) builds a fresh solver and fresh CNF per budget
    point, discarding every learned clause between attempts. This module
    instead encodes Φ {e once} at the maximum dimensions with per-leg,
    per-V-step and per-R-op activation selectors ({!Encode.activation}) and
    drives the sweep as [Solver.solve ~assumptions] calls on the {e same}
    solver: learned clauses and VSIDS scores carry across all budget
    points, and an UNSAT under assumptions is still a per-budget
    optimality certificate. Saved phases carry only across a SAT answer
    (a useful warm start); after an UNSAT/timeout they are reset
    ({!Mm_sat.Solver.reset_phases}) because phases saved while refuting
    one budget keep steering the search into the refuted region at the
    next one.

    Failed-assumption sets of UNSAT answers are remembered: a later point
    whose activation assignment satisfies a recorded set is refuted without
    touching the solver (certificate reuse across the two phases).

    A [t] owns a single {!Mm_sat.Solver.t} and is not safe for concurrent
    use. *)

module Spec = Mm_boolfun.Spec
module Solver = Mm_sat.Solver

type verdict = Sat of Circuit.t | Unsat | Timeout

(** Same shape as {!Synth.attempt} (which re-exports this type): [vars] and
    [clauses] are those of the shared max-budget encoding, identical for
    every point; [solver_stats] holds per-call deltas for the monotone
    counters (conflicts, decisions, propagations, restarts) and absolute
    values for the DB-size and throughput fields. *)
type attempt = {
  n_legs : int;
  steps_per_leg : int;
  n_rops : int;
  verdict : verdict;
  vars : int;
  clauses : int;
  time_s : float;
  solver_stats : Solver.stats;
}

type t

(** [create ~max_legs ~max_steps ~max_rops spec] encodes Φ at the maximum
    dimensions (compact style) with activation selectors. Defaults mirror
    {!Encode.config}. Raises [Invalid_argument] on negative dimensions. *)
val create :
  ?rop_kind:Rop.kind ->
  ?taps:Encode.taps ->
  ?symmetry_breaking:bool ->
  ?allow_literal_rop_inputs:bool ->
  max_legs:int ->
  max_steps:int ->
  max_rops:int ->
  Spec.t ->
  t

(** Formula size of the shared encoding: (variables, clauses). *)
val size : t -> int * int

(** Cumulative statistics of the underlying solver (not per-point deltas). *)
val cumulative_stats : t -> Solver.stats

(** Number of recorded per-budget UNSAT certificates. *)
val certificates : t -> int

(** [solve_point t ~n_legs ~steps ~n_rops] answers Φ restricted to one
    budget point. SAT models are decoded through {!Encode.decode_prefix}
    and re-verified against the spec on all rows (raising [Failure] on an
    encoder inconsistency). Dimensions must not exceed the encoded
    maxima. *)
val solve_point :
  ?timeout:float ->
  t ->
  n_legs:int ->
  steps:int ->
  n_rops:int ->
  attempt
