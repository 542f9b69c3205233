(** NPN canonicalization of truth tables with n ≤ 4 inputs.

    Two functions are NPN-equivalent when one maps to the other by permuting
    inputs, negating a subset of inputs, and optionally negating the output.
    The 65 536 4-input functions collapse to exactly 222 NPN classes (1, 2, 4
    and 14 classes for n = 0..3), so sweeps like Table III/IV that would
    otherwise re-solve thousands of SAT instances only need one synthesis run
    per class. {!canon} computes the class representative together with the
    transform that reaches it; the engine inverts the input part of that
    transform ({!apply_circuit} on {!inverse}) to map a class solution back to
    a circuit for the concrete function.

    Convention: a transform [t] with permutation [perm], input negations
    [neg] and output negation [out_neg] acts as

    [(apply t f)(y_1..y_n) = f(x_1..x_n) XOR out_neg]  where
    [x_(perm.(i)) = y_(i+1) XOR neg.(i)]  for 0-based [i].

    Variable indices are 1-based, matching {!Mm_boolfun.Literal}. *)

module Tt = Mm_boolfun.Truth_table

type t = private {
  n : int;
  perm : int array;  (** [perm.(i)] (1-based value) is the source variable
                         fed by transformed variable [i+1] *)
  neg : bool array;  (** [neg.(i)]: transformed variable [i+1] is negated *)
  out_neg : bool;
}

(** [make ~perm ~neg ~out_neg] validates that [perm] is a permutation of
    [1..n] and [Array.length neg = n]. Raises [Invalid_argument]. *)
val make : perm:int array -> neg:bool array -> out_neg:bool -> t

val identity : int -> t

(** [inverse t] satisfies [apply (inverse t) (apply t f) = f]. *)
val inverse : t -> t

(** [input_only t] is [t] with the output negation dropped. *)
val input_only : t -> t

val is_input_only : t -> bool

(** Truth-table action; [f] must have arity [t.n]. *)
val apply : t -> Tt.t -> Tt.t

(** [canon f] for [Tt.arity f <= 4]: the NPN class representative (the
    numerically smallest {!Tt.to_int} image over the orbit) and a transform
    [t] with [apply t f = fst (canon f)]. Raises [Invalid_argument] for
    arity > 4. *)
val canon : Tt.t -> Tt.t * t

(** Number of NPN classes of [n]-input functions, by exhaustive
    canonicalization of all [2^(2^n)] tables ([n <= 4]). *)
val class_count : int -> int

(** [class_reps n] enumerates the canonical representative of every NPN
    class of [n]-input functions, in ascending {!Tt.to_int} order; each is
    a fixed point of {!canon} and the list has {!class_count}[ n] elements
    (222 for n = 4). This is the atlas builder's ground-truth universe. *)
val class_reps : int -> Tt.t list

(** [apply_circuit t c] rewrites every literal of [c] (V-op electrodes,
    literal R-op inputs, literal outputs) so the result realizes [apply t h]
    for each output table [h] of [c]. Only input transforms are expressible
    structurally; raises [Invalid_argument] when [t.out_neg] is set or the
    arities disagree. *)
val apply_circuit : t -> Mm_core.Circuit.t -> Mm_core.Circuit.t

(** All transforms of arity [n] (n! · 2^n · 2 of them, 768 for n = 4). *)
val all : int -> t list

val pp : Format.formatter -> t -> unit
