(** Boolean expressions with a small concrete syntax.

    Grammar (precedence low to high): [e ::= e "|" e | e "^" e | e "&" e |
    "~" e | "(" e ")" | "0" | "1" | "x<k>"]. Both ["~"] and ["!"] negate;
    ["+"] is accepted for OR and ["*"] for AND, matching the paper's algebraic
    notation (e.g. ["x1*x2 + x3*x4"]). *)

type t =
  | Const of bool
  | Var of int  (** 1-based *)
  | Not of t
  | And of t * t
  | Or of t * t
  | Xor of t * t

(** [parse s] parses the expression or returns a message pinpointing the
    offending position. *)
val parse : string -> (t, string) result

(** Raises [Invalid_argument] on parse errors. *)
val parse_exn : string -> t

(** Largest variable index mentioned (0 for constant expressions). *)
val max_var : t -> int

(** [eval e ~n ~row] evaluates under the paper's row convention. *)
val eval : t -> n:int -> row:int -> bool

(** [table ~n e] tabulates [e] as an [n]-input function; [n] defaults to
    [max_var e]. *)
val table : ?n:int -> t -> Truth_table.t

(** [spec ~name ~n exprs] builds a multi-output spec, one output per
    expression; [n] defaults to the largest variable over all outputs. *)
val spec : name:string -> ?n:int -> t list -> Spec.t

val to_string : t -> string
