(** Mixed-mode circuit intermediate representation.

    A circuit has a V-op part — [N_L] V-legs of [N_VS] V-ops each, executed
    in parallel on one device per leg with a shared bottom electrode — and an
    R-op part of [N_R] stateful gates executed sequentially afterwards
    (Fig. 1 of the paper). R-op inputs and circuit outputs tap leg results,
    earlier R-ops, or plain literals (a literal input costs an extra device
    loaded during initialization). *)

module Literal = Mm_boolfun.Literal
module Tt = Mm_boolfun.Truth_table
module Spec = Mm_boolfun.Spec

(** One V-op: the literals driving the electrodes. The device input is the
    previous V-op of the same leg (const-0 state for the first). *)
type vop = { te : Literal.t; be : Literal.t }

(** Where an R-op input or a circuit output comes from.

    [From_vop (l, s)] taps leg [l] after step [s] — the paper's Eq. 7 allows
    any of the [N_V] V-op results as an R-op input. On a physical line array
    a leg's device only exposes its value after the final step, so circuits
    using non-final taps must be passed through {!physicalize} before
    scheduling (one replica device per distinct tap). *)
type source =
  | From_literal of Literal.t
  | From_leg of int  (** final value of leg [i] (0-based) *)
  | From_vop of int * int  (** (leg, step): value of leg [i] after step [s] *)
  | From_rop of int  (** output of an earlier R-op *)

type rop = { in1 : source; in2 : source }

type t = {
  arity : int;
  rop_kind : Rop.kind;
  legs : vop array array;  (** [legs.(l).(s)] = step [s] of leg [l] *)
  rops : rop array;
  outputs : source array;
}

val make :
  arity:int ->
  ?rop_kind:Rop.kind ->
  legs:vop array array ->
  rops:rop array ->
  outputs:source array ->
  unit ->
  t

(** Structural sanity: equal leg lengths, R-ops reference earlier R-ops
    only, sources in range. Raises [Invalid_argument] otherwise
    (performed by {!make}). *)
val validate : t -> unit

(** {2 Evaluation}

    Every evaluator below makes one pass over the circuit: each literal's
    table is built at most once, and only if read; each leg is replayed
    once with every step's table kept; each R-op is computed once. *)

(** Truth table of a leg after step [s] (0-based); [s = -1] gives the
    initial const-0. *)
val leg_value : t -> leg:int -> step:int -> Tt.t

(** Truth table produced by a source. *)
val source_value : t -> source -> Tt.t

(** Truth tables of all R-op outputs, [.(i)] for R-op [i]. *)
val rop_values : t -> Tt.t array

(** Truth table of R-op [i]'s output ([(rop_values t).(i)]). *)
val rop_value : t -> int -> Tt.t

(** Truth tables of all outputs. *)
val output_tables : t -> Tt.t array

(** [eval t row] = output word for one input row (bit [o] = output [o]). *)
val eval : t -> int -> int

(** [realizes t spec] checks all [2^n] rows; [Error row] gives the first
    mismatching row. *)
val realizes : t -> Spec.t -> (unit, int) result

(** {2 Metrics — the columns of Table IV} *)

val n_legs : t -> int

(** Steps per leg, N_VS. *)
val steps_per_leg : t -> int

(** Total V-ops, N_V = N_L · N_VS. *)
val n_vops : t -> int

val n_rops : t -> int
val n_outputs : t -> int

(** Total execution steps N_St = N_VS + N_R (V-ops parallel, R-ops
    sequential on a line array). *)
val n_steps : t -> int

(** ASAP dependency level of every R-op (1-based; literal, leg and V-op
    sources count as level 0). R-ops of equal level are mutually
    independent and may fire in the same cycle on a row-parallel target. *)
val rop_levels : t -> int array

(** [max (rop_levels t)] (0 when there are no R-ops) — the R-phase critical
    path, the cycle lower bound a row-parallel scheduler is chasing. *)
val rop_depth : t -> int

(** Devices: one per distinct tap point of each leg (at least one per leg),
    one per R-op output, one per distinct literal fed directly to an R-op
    (loaded at initialization). For final-tap circuits this is
    [n_legs + n_rops + #literal inputs]. *)
val n_devices : t -> int

(** [true] when every [From_vop] tap is at the final step (directly
    schedulable on a line array). *)
val final_taps_only : t -> bool

(** [physicalize t] returns an equivalent circuit whose taps are all
    leg-final: legs tapped at several distinct steps are split into replica
    legs, truncated prefixes are padded with hold steps (TE = BE, matching
    the shared BE of the original schedule) so all legs keep equal length.
    The result satisfies [final_taps_only] and realizes the same function. *)
val physicalize : t -> t

val pp : Format.formatter -> t -> unit
val pp_source : Format.formatter -> source -> unit
