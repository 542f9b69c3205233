(** Mapping mixed-mode circuits onto the line-array electrical simulator.

    A plan assigns each circuit element to a physical cell, mirroring the
    paper's experimental demonstration (Section V): leg devices first, then
    R-op output cells (preset to the R-op's neutral state), then cells
    holding literals fed directly to R-ops or tapped directly by outputs
    (loaded in the initialization phase, which — as in the paper — is
    excluded from the recorded trace).
    Execution then drives one V-op cycle per step (shared BE rail, dummy
    TE = BE on inactive cells), one cycle per R-op (MAGIC NOR or the
    IMPLY-family NIMP, per the circuit's R-op kind), and one readout cycle
    per output. *)

module Spec = Mm_boolfun.Spec
module Literal = Mm_boolfun.Literal

type cell_role =
  | Leg_cell of int
  | Rop_out_cell of int
  | Literal_cell of Literal.t

type plan

(** [plan c] physicalizes [c] if needed (replica legs for non-final taps)
    and assigns cells. Raises [Invalid_argument] when the circuit's BE
    literals differ across legs within a step (not schedulable on one
    shared rail). *)
val plan : Circuit.t -> plan

val circuit : plan -> Circuit.t
val n_cells : plan -> int
val roles : plan -> cell_role array

type run = {
  input : int;  (** input row *)
  outputs : bool array;  (** read-out logical values *)
  expected : int option;  (** spec word when verified against a spec *)
  cycles : int;  (** V-op + R-op + readout cycles *)
  switches : int;
      (** switching events in this evaluation, summed over cells
          ({!Mm_device.Line_array.total_switches} after readout) *)
  waveform : Mm_device.Waveform.t;
}

(** [execute plan ~input ()] runs one input row on a fresh line array.
    @param params device parameters (default ideal
           {!Mm_device.Device.default_params})
    @param rng randomness for variation (default a fixed seed)
    @param faults per-cell faults injected after initialization, e.g.
           [[(7, Stuck_at false)]] breaks the first R-op output cell *)
val execute :
  ?params:Mm_device.Device.params ->
  ?rng:Mm_device.Rng.t ->
  ?faults:(int * Mm_device.Device.fault) list ->
  plan ->
  input:int ->
  unit ->
  run

(** [verify plan spec] executes every input row with ideal devices and
    returns the list of failing rows (empty = hardware-validated, the
    moral equivalent of the paper's Fig. 2 success). *)
val verify :
  ?params:Mm_device.Device.params ->
  ?rng:Mm_device.Rng.t ->
  plan ->
  Spec.t ->
  int list

(** [error_rate plan spec ~variation ~trials ~seed] Monte-Carlo estimate of
    the probability that at least one output reads back wrong, averaged
    over all input rows with fresh device instances per trial. *)
val error_rate :
  plan ->
  Spec.t ->
  variation:Mm_device.Variation.t ->
  trials:int ->
  seed:int ->
  float
