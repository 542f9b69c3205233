(** Solver literals.

    A variable is a non-negative int; a literal packs a variable and a sign
    into one int: [lit = 2*var + (if negated then 1 else 0)]. DIMACS ints are
    signed and 1-based. *)

type t = int

val make : int -> bool -> t

(** Positive literal of a variable. *)
val pos : int -> t

(** Negative literal of a variable. *)
val neg_of : int -> t

val var : t -> int

(** [true] when the literal is negated. *)
val sign : t -> bool

(** Complement. *)
val negate : t -> t

(** DIMACS encoding: [var+1] or [-(var+1)]. *)
val to_dimacs : t -> int

val of_dimacs : int -> t
