(** Cycle-by-cycle measurement traces (the paper's Fig. 2).

    A waveform accumulates per-cycle snapshots of every cell's resistance,
    electrode voltages and |I|, and renders them as the rows of Fig. 2:
    resistance per cell, V_TE per cell, shared V_BE, |I| per cell. *)

type row = {
  cycle : int;
  label : string;  (** e.g. "V-ops step 2", "R-op R3", "readout out1" *)
  cells : Line_array.cell_obs array;
}

type t

val create : unit -> t

(** [record t ~label c] appends a cycle. *)
val record : t -> label:string -> Line_array.cycle -> unit

(** The recorded cycles in order, each expanded into per-cell
    observations. *)
val rows : t -> row list

(** Number of recorded cycles, O(1). *)
val length : t -> int

(** Render in a Fig.-2-like layout. [`Resistance] prints MΩ, [`Current]
    µA. *)
val pp : Format.formatter -> t -> unit

(** Final logical states decoded from the last recorded cycle's
    resistances (LRS threshold at the geometric mean of [params]). *)
val final_states : params:Device.params -> t -> bool array option
