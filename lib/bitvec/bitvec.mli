(** Fixed-length bit vectors.

    A [Bitvec.t] is an immutable-by-convention vector of [length t] bits,
    indexed from 0. The library underpins truth tables (a function of [n]
    inputs is a vector of [2^n] bits, bit [q] being the value on input row
    [q]) and the dense function-space sets used by the universality closure
    engine.

    All binary operations require operands of equal length and raise
    [Invalid_argument] otherwise. *)

type t

(** [create len] is a vector of [len] zero bits. *)
val create : int -> t

(** [init len f] sets bit [i] to [f i]. *)
val init : int -> (int -> bool) -> t

val length : t -> int
val copy : t -> t

(** [get t i] is bit [i]; raises [Invalid_argument] when out of range. *)
val get : t -> int -> bool

(** [set t i b] mutates bit [i] in place. Reserve for construction code. *)
val set : t -> int -> bool -> unit

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t

(** [lognot t] complements every bit (result masked to [length t]). *)
val lognot : t -> t

(** [equiv a b] is the bitwise XNOR of [a] and [b]. *)
val equiv : t -> t -> t

(** [andnot a b] is [a AND (NOT b)]. *)
val andnot : t -> t -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** Number of set bits. *)
val popcount : t -> int

val is_zero : t -> bool
val is_ones : t -> bool

(** [of_string "0101"] reads bit 0 from the leftmost character. Accepts only
    ['0'] and ['1']; raises [Invalid_argument] otherwise. *)
val of_string : string -> t

(** Inverse of [of_string]: bit 0 first. *)
val to_string : t -> string

(** [of_int len v] takes bit [i] of [v] as bit [i]; requires [len <= 62]. *)
val of_int : int -> int -> t

(** [to_int t] packs the bits into an int; requires [length t <= 62]. *)
val to_int : t -> int

val iteri : (int -> bool -> unit) -> t -> unit
val fold : ('a -> bool -> 'a) -> 'a -> t -> 'a
