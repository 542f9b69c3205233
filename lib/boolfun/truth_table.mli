(** Truth tables of [n]-input Boolean functions.

    Row convention (the paper's): row [q] ranges over [0 .. 2^n - 1]; on row
    [q], input variable [x_i] (1-based) has value bit [n - i] of [q] — i.e.
    [x_1] is the most significant bit of the row index. Truth-table strings
    such as ["0101010101010101"] list rows left to right starting at row 0,
    exactly as printed in the paper's Table II. *)

type t

(** Number of inputs. *)
val arity : t -> int

(** [2^n], the number of rows. *)
val rows : t -> int

(** [const n b] is the constant function. *)
val const : int -> bool -> t

(** [var n i] is the projection on variable [x_i], [1 <= i <= n]. *)
val var : int -> int -> t

(** [nvar n i] is the complemented projection [¬x_i]. *)
val nvar : int -> int -> t

(** [of_fun n f] tabulates [f] over all rows. *)
val of_fun : int -> (int -> bool) -> t

(** [of_string n "0101..."] parses a row string of length [2^n]. *)
val of_string : int -> string -> t

val to_string : t -> string

(** [of_int n v] for [n <= 4]: bit [q] of [v] is the value on row [q]. *)
val of_int : int -> int -> t

(** Inverse of [of_int]; requires [n <= 4]. *)
val to_int : t -> int

(** [eval t q] is the value on row [q]. *)
val eval : t -> int -> bool

(** [input_bit n q i] is the value of [x_i] on row [q]. *)
val input_bit : int -> int -> int -> bool

val lnot : t -> t
val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t
val ( ^^^ ) : t -> t -> t
val nor : t -> t -> t
val nand : t -> t -> t
val imply : t -> t -> t

(** [nimp a b] is the negated implication [a ∧ ¬b] (the Ta₂O₅ R-op). *)
val nimp : t -> t -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val popcount : t -> int
val is_const : t -> bool

(** Positive and negative cofactors with respect to [x_i]. Results keep
    arity [n] (the cofactored variable becomes irrelevant). *)
val cofactor : t -> int -> bool -> t

(** [depends_on t i] is [true] when [x_i] affects the function value. *)
val depends_on : t -> int -> bool

(** Variables the function actually depends on, ascending. *)
val support : t -> int list

(** [project t vars] re-expresses [t] over exactly [vars] (which must
    contain the support): the result has arity [List.length vars] with
    variable [y_(i+1)] standing for [List.nth vars i]. *)
val project : t -> int list -> t

val pp : Format.formatter -> t -> unit
