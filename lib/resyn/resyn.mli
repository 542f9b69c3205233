(** Post-mapping resynthesis of stitched schedules.

    The mapper's cut boundaries hide cross-block sharing, so the committed
    implementation is re-examined {e after} stitching, where the
    boundaries are gone. {!run} repeats three cleanup sweeps to a fixed
    point (or a pass cap):

    + {!sweep_merge} — semantic sweeping by complete simulation (the arity
      here is small enough that a truth table is cheaper than a SAT
      sweep): any R-op whose global function duplicates an earlier signal
      (literal, final leg value, or earlier R-op) is redirected onto it;
    + {!dce} — dead R-ops are eliminated;
    + {!compact_legs} — the stitcher's hold padding is squeezed out of the
      legs under the line array's shared-BE-rail constraint.

    Every changed circuit is re-checked with [Circuit.realizes] against
    the full specification before it is kept, and steps never increase. *)

module Circuit = Mm_core.Circuit
module Spec = Mm_boolfun.Spec
module Engine = Mm_engine.Engine

(** {2 Cleanup sweeps} *)

(** Redirect R-ops computing an already-available function (by complete
    simulation over all [2^arity] rows) onto the earlier signal; returns
    the count redirected. Skipped above arity 14 (table size). *)
val sweep_merge : Circuit.t -> Circuit.t * int

(** Drop R-ops unreachable from the outputs; legs are kept (removing a leg
    cannot reduce the step metric). Returns the count removed. *)
val dce : Circuit.t -> Circuit.t * int

(** Delete hold V-ops (TE = BE — Table I: the leg state is unchanged) and
    left-pack every leg. The stitcher serializes independent blocks in
    time, padding all other legs with holds over each block's span; the
    line array steps all legs in lockstep, so those holds only inflate
    [steps_per_leg]. Mid-leg taps are remapped onto the surviving prefix
    (a tap before any surviving op reads the initial state, constant 0).
    Returns the V-steps saved ([steps_per_leg] before − after); the
    identity when nothing shrinks. *)
val compact_legs : Circuit.t -> Circuit.t * int

(** {2 Fixed-point loop} *)

type stats = {
  passes : int;  (** cleanup passes run (≤ the cap) *)
  fixed_point : bool;  (** converged before the pass cap *)
  windows_attempted : int;  (** always 0; read by [perfbench/compile.ml] *)
  windows_accepted : int;  (** always 0; read by [perfbench/compile.ml] *)
  rejected : int;  (** cleanups failing full-spec re-verification *)
  sweep_merged : int;
  dce_removed : int;
  v_steps_saved : int;  (** [steps_per_leg] reclaimed by {!compact_legs} *)
  steps_before : int;
  steps_after : int;
  wall_s : float;
}

type t = {
  circuit : Circuit.t;  (** re-verified against the spec on all rows *)
  stats : stats;
}

(** [run spec circuit] — [circuit] must realize [spec] (raises
    [Invalid_argument] otherwise). [max_passes] (default 4) caps the
    cleanup passes; one more pass runs after the cap when the last one
    still changed something. *)
val run : ?max_passes:int -> Spec.t -> Circuit.t -> t

(** [optimize cfg spec circuit] is [run spec circuit]: [max_width] and
    [cfg] are ignored. It keeps the signature the benchmark's [compile]
    workload calls, so that workload times the real loop. *)
val optimize : ?max_width:int -> Engine.config -> Spec.t -> Circuit.t -> t
