(** Cycle-by-cycle measurement traces (the paper's Fig. 2).

    A waveform keeps every cell's resistance once, when recording begins,
    then per cycle only its drive and the resistances of the cells it
    drove ({!Line_array.cycle}). Replaying those deltas yields each
    cycle's resistance, electrode voltages and |I| per cell, rendered as
    the rows of Fig. 2: resistance per cell, V_TE per cell, shared V_BE,
    |I| per cell. *)

type row = {
  cycle : int;
  label : string;  (** e.g. "V-ops step 2", "R-op R3", "readout out1" *)
  cells : Line_array.cell_obs array;
}

type t

(** [create arr] starts an empty waveform over [arr]'s current
    resistances: record its cycles from here on. *)
val create : Line_array.t -> t

(** [record t ~label c] appends a cycle of the array the waveform was
    created over. *)
val record : t -> label:string -> Line_array.cycle -> unit

(** The recorded cycles in order, each expanded into per-cell
    observations by replaying the deltas from the base. *)
val rows : t -> row list

(** Number of recorded cycles, O(1). *)
val length : t -> int

(** Render in a Fig.-2-like layout. [`Resistance] prints MΩ, [`Current]
    µA. *)
val pp : Format.formatter -> t -> unit

(** Final logical states decoded from the resistances after the last
    recorded cycle (LRS threshold at the geometric mean of [params]);
    [None] when nothing was recorded. *)
val final_states : params:Device.params -> t -> bool array option
