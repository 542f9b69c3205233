(** 1D memristive line array.

    [n] devices sit side by side; each has its own top electrode (TE) and
    all share one bottom electrode (BE) rail during V-op cycles — the
    topology of the paper's experimental demonstration (10 BiFeO₃ cells).
    Stateful MAGIC NOR steps connect three devices through the shared rail
    and exploit the voltage-divider effect.

    All electrical activity is expressed through {!Device.apply}-level pulses
    so that variation, endurance and faults influence logic outcomes. *)

type t

(** Per-cell observation of one cycle, as {!Waveform} renders it. *)
type cell_obs = {
  v_te : float;
  v_be : float;
  resistance : float;  (** after the cycle *)
  current : float;  (** |I| at the applied bias through the final resistance *)
}

(** The electrode voltages a cycle applied, in compact form. *)
type drive =
  | Vop of { v_te : Float.Array.t; v_be : float }
      (** per-cell TE voltages and the shared BE rail *)
  | Gate of {
      in1 : int;
      in2 : int;
      out : int;
      in_te : float;
      in_be : float;  (** seen by both input cells *)
      out_te : float;
      out_be : float;  (** seen by the output cell *)
    }  (** a stateful R-op; uninvolved cells see 0 V *)
  | Read of { cell : int; v_read : float }
      (** readout of one cell; the others see 0 V *)

(** One cycle: its drive and, in [driven], the resistance after the cycle
    of each cell it drove — every cell in index order for a V-cycle,
    [in1], [in2], [out] for a gate, none for a readout. A cell the cycle
    did not drive keeps its resistance. *)
type cycle = { drive : drive; driven : Float.Array.t }

(** [update rs c] overwrites, in the per-cell resistances [rs], the cells
    [c] drove — replaying [c] on the resistances before it. *)
val update : Float.Array.t -> cycle -> unit

(** [observe drive rs] expands a cycle's drive and every cell's resistance
    after it ([rs]) into one {!cell_obs} per cell. *)
val observe : drive -> Float.Array.t -> cell_obs array

(** [create ~rng ~n ()] builds [n] devices.
    @param params device parameters (default {!Device.default_params})
    @param v0 MAGIC drive voltage (default 9.0 V, i.e. divider midpoint
           comfortably above the 4 V RESET threshold) *)
val create :
  rng:Rng.t -> n:int -> ?params:Device.params -> ?v0:float -> unit -> t

val size : t -> int
val device : t -> int -> Device.t

(** Logical states of all cells. *)
val states : t -> bool array

(** Every cell's resistance now, in a fresh array. *)
val resistances : t -> Float.Array.t

(** [set_states t l] forces states (the initialization phase, which the
    paper excludes from measurement). *)
val set_states : t -> (int * bool) list -> unit

(** [vop_cycle t ~te ~be] applies one parallel V-op cycle: cell [i] receives
    a TE pulse according to [te i] ([None] = dummy cycle, TE mirrors BE so
    the cell holds), and every cell sees the shared BE pulse [be]. *)
val vop_cycle : t -> te:(int -> bool option) -> be:bool -> cycle

(** [magic_nor t ~in1 ~in2 ~out] executes one stateful NOR: [out] (expected
    preset to LRS) receives the divider voltage in RESET polarity; after the
    output settles, the residual divider stress is applied to the inputs —
    reproducing both correct MAGIC behaviour and its input-disturb failure
    mode under variation. [in1 = in2] degenerates to the 2-device MAGIC NOT;
    the output cell must be distinct from both inputs. *)
val magic_nor : t -> in1:int -> in2:int -> out:int -> cycle

(** [magic_nimp t ~in1 ~in2 ~out] executes one stateful negated implication
    (the Ta₂O₅/IMPLY-family R-op): [out] (expected preset to HRS) is
    conditionally SET through the divider when [in1] is LRS and [in2] is
    HRS. Residual stress lands on the inputs in SET polarity, giving the
    analogous disturb failure mode under variation. *)
val magic_nimp : t -> in1:int -> in2:int -> out:int -> cycle

(** [read t i] reads cell [i]: (logical value, |I| at v_read). *)
val read : t -> int -> bool * float

(** The readout cycle of cell [i] (other cells idle). Raises
    [Invalid_argument] when [i] is not a cell. *)
val read_cycle : t -> int -> cycle

(** Total switching events across all cells (endurance accounting). *)
val total_switches : t -> int
