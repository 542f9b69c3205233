(** Multi-output Boolean function specifications.

    A spec is the object handed to the synthesizer: a name, an input count
    [n] and [N_O] output truth tables (the paper's [f = (f_1, ..., f_{N_O})]). *)

type t

val make : name:string -> Truth_table.t array -> t

(** [of_fun ~name ~arity ~outputs f] tabulates output [o] on row [q] as
    [f ~row:q ~output:o]. *)
val of_fun : name:string -> arity:int -> outputs:int -> (row:int -> output:int -> bool) -> t

val name : t -> string
val arity : t -> int
val output_count : t -> int
val output : t -> int -> Truth_table.t
val outputs : t -> Truth_table.t array

(** [eval t q] is the output word on row [q], bit [o] = output [o]. *)
val eval : t -> int -> int

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
