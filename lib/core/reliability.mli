(** Monte-Carlo reliability comparison of mixed-mode vs R-only circuits.

    Quantifies the paper's central architectural argument (Sections II-B and
    III): R-ops are sensitive to D2D/C2C variation — especially when
    cascaded through the voltage divider — while V-ops write states directly
    and do not cascade analog errors. MM circuits, having fewer and
    shallower R-ops, should therefore degrade more slowly as variation
    grows. *)

module Spec = Mm_boolfun.Spec

type point = {
  variation : Mm_device.Variation.t;
  mm_error : float;  (** P(any output wrong), MM circuit *)
  r_only_error : float;  (** same for the R-only baseline *)
}

type study = {
  spec_name : string;
  mm_circuit : Circuit.t;
  r_only_circuit : Circuit.t;
  points : point list;
}

(** [run spec ~mm ~r_only ~trials ~seed] sweeps {!Mm_device.Variation.sweep}.
    Both circuits must be MAGIC-NOR schedulable. *)
val run :
  Spec.t -> mm:Circuit.t -> r_only:Circuit.t -> trials:int -> seed:int -> study

(** Switching events in one evaluation, summed over cells, worst input
    row (endurance pressure; the paper notes V-ops may switch a cell on
    every operation). Counted by the devices themselves, from the plan's
    initial cell states. *)
val max_switches_per_run : Circuit.t -> int
