(** CNF formula builder.

    A builder allocates fresh variables, records size statistics (the
    paper's Table IV reports formula variables and clauses) and delivers the
    clauses either to an attached {!Mm_sat.Solver.t}, to an in-memory clause
    list (for DIMACS export), or to both. Encoders are written once against
    this interface and can then be sized without solving. *)

type t

module Lit = Mm_sat.Lit

(** [create ()] — counting only. [~solver] pipes clauses into a solver.
    [~keep_clauses:true] retains clauses for {!to_dimacs}. *)
val create : ?keep_clauses:bool -> ?solver:Mm_sat.Solver.t -> unit -> t

val fresh_var : t -> int

(** Positive literal of a fresh variable. *)
val fresh_lit : t -> Lit.t

(** [fresh_lits t k] allocates [k] fresh variables. *)
val fresh_lits : t -> int -> Lit.t array

val add : t -> Lit.t list -> unit
val num_vars : t -> int
val num_clauses : t -> int

(** A literal constrained true (allocated and asserted on first use). *)
val const_true : t -> Lit.t

val const_false : t -> Lit.t

(** [Dimacs] view of the recorded clauses; raises [Invalid_argument] unless
    built with [keep_clauses:true]. *)
val to_dimacs : t -> Mm_sat.Dimacs.problem

(** {2 Tseitin gate definitions} — each returns a fresh literal constrained
    equivalent to the gate output. *)

val define_and : t -> Lit.t -> Lit.t -> Lit.t
val define_or : t -> Lit.t -> Lit.t -> Lit.t
val define_nor : t -> Lit.t -> Lit.t -> Lit.t
val define_xor : t -> Lit.t -> Lit.t -> Lit.t

(** [define_andn t lits] is the n-ary conjunction. *)
val define_andn : t -> Lit.t list -> Lit.t

(** {2 Constraint helpers} *)

(** [implies_clause t antecedent cs]: [a1 ∧ ... ∧ ak → (c1 ∨ ... ∨ cm)]. *)
val implies_clause : t -> Lit.t list -> Lit.t list -> unit

(** [implies_equiv t antecedent a b]: under the antecedent, [a ≡ b]. *)
val implies_equiv : t -> Lit.t list -> Lit.t -> Lit.t -> unit

(** [fix t l b]: unit clause assigning [l] the value [b]. *)
val fix : t -> Lit.t -> bool -> unit

(** [chain_implies t lits]: the monotone chain [lits.(k+1) → lits.(k)] for
    every consecutive pair — an activation ladder: once literal [k+1] holds,
    all lower-indexed literals are forced. Fixing a single boundary pair then
    pins the whole vector (used by the incremental synthesis ladder's
    activation selectors). *)
val chain_implies : t -> Lit.t array -> unit
