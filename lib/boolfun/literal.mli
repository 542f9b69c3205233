(** The literal set L_n of the paper.

    For an [n]-input function the peripherals may drive TE/BE electrodes only
    with values from
    [L_n = (const-0, const-1, ¬x1, x1, ¬x2, x2, ..., ¬xn, xn)].
    The paper indexes this list 1-based (Section III-B: literal 9 of L_4 is
    ¬x4); here indices are 0-based, so literal 8 of L_4 is ¬x4. *)

type t =
  | Const0
  | Const1
  | Pos of int  (** [Pos i] is x_i, 1-based *)
  | Neg of int  (** [Neg i] is ¬x_i, 1-based *)

(** Number of literals for [n] inputs: [2 + 2n]. *)
val count : int -> int

(** [all n] is L_n in index order. *)
val all : int -> t list

(** [to_index n l] is the position of [l] in [all n] (0-based). *)
val to_index : int -> t -> int

(** [of_index n j] inverts [to_index]; raises [Invalid_argument] when out of
    range. *)
val of_index : int -> int -> t

(** Truth table of the literal as an [n]-input function. *)
val table : int -> t -> Truth_table.t

(** [eval n l q] is the literal's value on input row [q]. *)
val eval : int -> t -> int -> bool

val negate : t -> t
val equal : t -> t -> bool
val to_string : t -> string
