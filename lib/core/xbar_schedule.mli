(** Crossbar scheduling — the parallel-R-op extension sketched in the
    paper's conclusions.

    R-ops are levelized over their dependency DAG; every level executes as
    one peripheral transfer cycle (operands are copied into the level's row)
    followed by one cycle of row-parallel MAGIC NORs
    ({!Mm_device.Crossbar.parallel_magic_nor}). V-legs execute on row 0
    exactly as on the 1D array. Total latency is therefore
    [N_VS + 2·depth + N_O] cycles instead of the line array's
    [N_VS + N_R + N_O] — a win whenever the R-op DAG is wide. *)

module Spec = Mm_boolfun.Spec

type plan

(** [plan c] physicalizes [c] (NOR circuits only) and assigns junctions. *)
val plan : Circuit.t -> plan

val circuit : plan -> Circuit.t

(** R-op DAG depth (number of parallel levels). *)
val depth : plan -> int

(** Predicted cycle count including per-output readout. *)
val cycles : plan -> int

type run = { outputs : bool array; cycles : int }

val execute :
  ?params:Mm_device.Device.params ->
  ?rng:Mm_device.Rng.t ->
  plan ->
  input:int ->
  unit ->
  run

(** Failing rows under ideal devices (empty = validated). *)
val verify : plan -> Spec.t -> int list

(** {b Layout note}: row 0 hosts the V-legs and literal cells; R-op [i]
    owns row [i+1] (operands at columns 0/1, output at column 2), so gates
    of one level always sit on distinct rows and can fire together. *)

(** [(line_cycles, crossbar_cycles)] for the same circuit, both including
    readout. *)
val latency_comparison : Circuit.t -> int * int
