(** Cycle-minimizing crossbar scheduling over a {!Place} layout.

    The placed cover is exploded into micro-ops — per-slot V-steps, per-slot
    R-gates, stitch inverters, peripheral transfers — whose dependency DAG
    is reconstructed from cell producers. Cycles are {e typed}: a cycle is
    one broadcast V-op cycle (shared bit-line TE pattern landing on every
    active row), one parallel MAGIC NOR cycle (at most one gate per row), or
    one transfer cycle (at most [ports] peripheral moves, each row at most
    one transfer endpoint). A greedy list scheduler (longest-path-to-sink
    priority) packs maximal cycles, then an optional SAT polish re-packs
    sliding windows through {!Mm_sat.Solver} with a small makespan encoding
    — every SAT answer is re-validated by {!check} before splicing, so
    polish never increases the cycle count and never emits an illegal
    schedule. A window whose slot lower bound ({!window_bound}) already
    exceeds [w - 1] cannot be shortened and builds no solver.

    V-cycle sharing is conservative and physics-honest: a set of V-steps
    shares a cycle only when no column needs two TE literals, no row needs
    two BE literals, and every active row sees only zero-stress (TE = BE)
    literals on columns that are not its own — the executor then drives the
    {e full} pattern on every active row, so verification would catch any
    rule violation rather than mask it. *)

(** One scheduled cycle (replayable per input row by {!Xstitch}). *)
type rop_ref =
  | Gate of int * int  (** R-op [j] of slot [s] *)
  | Inverter of int  (** index into [Place.invs] *)

type cycle =
  | C_v of (int * int) list  (** broadcast V-cycle: [(slot, step)] *)
  | C_r of rop_ref list  (** parallel MAGIC NOR cycle *)
  | C_t of int list  (** transfer cycle: indices into [Place.xfers] *)

type t = {
  place : Place.t;
  cycles : cycle array;
  v_cycles : int;
  r_cycles : int;
  t_cycles : int;
  polish_gain : int;  (** cycles removed by the SAT window polish *)
}

val n_cycles : t -> int

(** (V, R, T) cycle counts of a raw cycle list. *)
val counts : cycle array -> int * int * int

(** Full legality audit of a cycle list against its placement: every
    micro-op scheduled exactly once, every dependency ordered strictly
    earlier, per-cycle row/port/broadcast constraints respected. [ports]
    defaults to unlimited. *)
val check : ?ports:int -> Place.t -> cycle array -> (unit, string) result

(** [build ~ports ~polish place] — greedy list schedule plus (by default)
    the SAT window polish, which slides an 8-cycle window over the
    schedule, at most 128 window solves per schedule. Defaults:
    [ports = 4], [polish = true]. The result always passes {!check}.
    Raises [Invalid_argument] if [ports < 1]. *)
val build : ?ports:int -> ?polish:bool -> Place.t -> t

(** {2 Window polish internals}

    Exposed for tests. The polish tries to repack the [w] cycles starting
    at [lo] into [w - 1] slots. *)

(** [window_bound ~ports place cycles ~lo ~w] is a lower bound on the
    slots any answer of the window's makespan encoding needs. Slots are
    type-pure, so it sums over cycle types the size of a greedy clique of
    that type's micro-ops that pairwise cannot share a slot (two gates on
    one row, two transfers sharing a row endpoint, two V-steps that cannot
    broadcast together, or two micro-ops joined by a dependency chain
    inside the window), using ⌈n_t / ports⌉ for transfers when it is
    larger. A legal window never needs more than its own [w] slots. *)
val window_bound :
  ports:int -> Place.t -> cycle array -> lo:int -> w:int -> int

(** [window_verdict ~ports place cycles ~lo ~w] solves the window's
    makespan encoding in [w - 1] slots with no conflict cap. *)
val window_verdict :
  ports:int -> Place.t -> cycle array -> lo:int -> w:int -> Mm_sat.Solver.result
