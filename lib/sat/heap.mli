(** Indexed binary heap over variables, ordered by decreasing VSIDS
    activity. Supports O(log n) insert/removal and priority increase
    notification.

    The heap does not own the activities: every operation that compares
    reads them from the [act] array it is given (indexed by variable), so
    callers mutate that array and then call {!notify_increased}. Passing
    the array keeps comparisons unboxed float reads. *)

type t

val create : unit -> t

val in_heap : t -> int -> bool
val insert : t -> float array -> int -> unit

(** [notify_increased t act v] restores the heap property after
    [act.(v)] grew. *)
val notify_increased : t -> float array -> int -> unit

(** Extract the variable with the largest activity. Raises [Not_found]
    when empty. *)
val remove_max : t -> float array -> int

val is_empty : t -> bool
