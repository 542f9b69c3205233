(** DIMACS CNF reading and writing, for interoperability and debugging
    (e.g. exporting a synthesis formula to compare against an external
    solver). *)

(** A problem: number of variables and clauses as DIMACS ints. *)
type problem = { num_vars : int; clauses : int list list }

(** [parse_string s] accepts comment lines, a [p cnf] header and
    0-terminated clauses. *)
val parse_string : string -> (problem, string) result

(** [to_string p] renders a DIMACS document. *)
val to_string : problem -> string

(** [load solver p] allocates missing variables and adds all clauses. *)
val load : Solver.t -> problem -> unit
