(** A complete CDCL SAT solver.

    The paper runs its synthesis formulas through SLIME 5; this module plays
    that role here. It is a conventional conflict-driven clause-learning
    solver in the MiniSat/Glucose lineage: two-watched-literal propagation,
    first-UIP conflict analysis with recursive clause minimization, VSIDS
    branching with phase saving, Luby restarts and LBD-guided learnt-clause
    database reduction. Solving is incremental: clauses may be added between
    [solve] calls, and [solve] accepts assumptions.

    Resource budgets (wall-clock seconds and/or conflicts) turn the answer
    into {!Unknown} instead of blocking forever — the synthesis driver maps
    that to the "optimality proof timed out" markers of the paper's
    Table IV. Budgets are checked on both the conflict and the
    conflict-free search paths, amortized over a fixed number of
    decisions/propagations, so the overshoot past [~timeout] is bounded
    even for conflict-free (or conflict-only) search stretches. *)

type t

type result = Sat | Unsat | Unknown

val create : unit -> t

(** Allocate a fresh variable. *)
val new_var : t -> int

(** [new_vars t k] allocates [k] consecutive variables and returns the first. *)
val new_vars : t -> int -> int

val nvars : t -> int
val nclauses : t -> int

(** [add_clause t lits] adds a clause. Tautologies are dropped; duplicates
    within the clause are merged; an empty (or root-falsified) clause makes
    the solver permanently UNSAT. *)
val add_clause : t -> Lit.t list -> unit

val add_clause_a : t -> Lit.t array -> unit

(** [solve t] under optional [assumptions]. [Unknown] is returned only when
    a [timeout] (seconds) or [max_conflicts] budget is exhausted; the
    solver stays usable, and a later [solve] resumes with everything it
    has learnt. *)
val solve :
  ?assumptions:Lit.t list -> ?max_conflicts:int -> ?timeout:float -> t -> result

(** Forget saved phases (back to [false], the phase every variable starts
    with). Learnt clauses,
    activities and everything else are kept. Useful between incremental
    [solve] calls whose assumptions change the satisfiable region: phases
    saved while refuting one budget keep steering the search into the
    refuted region at the next one. *)
val reset_phases : t -> unit

(** After [solve ~assumptions] returned {!Unsat}: the subset of the
    assumptions the refutation actually depends on (MiniSat's final
    conflict analysis). The empty list means the clause set is UNSAT
    regardless of assumptions — a certificate that subsumes {e every}
    assumption set. Meaningless after {!Sat}/{!Unknown} (returns []). *)
val failed_assumptions : t -> Lit.t list

(** [value t l]: the literal's value in the model of the last [Sat] answer.
    Raises [Invalid_argument] if the last call did not return [Sat]. *)
val value : t -> Lit.t -> bool

(** Model value of a variable (see {!value}). *)
val value_var : t -> int -> bool

(** [false] once the clause set is known UNSAT at root level. *)
val ok : t -> bool

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnt_clauses : int;  (** current learnt-DB size *)
  peak_learnts : int;  (** high-water mark of the learnt DB *)
  props_per_s : float;
      (** propagations per second of in-solver wall time, cumulative over
          all [solve] calls on this instance *)
}

val stats : t -> stats
