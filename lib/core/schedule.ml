module Spec = Mm_boolfun.Spec
module Literal = Mm_boolfun.Literal
module Device = Mm_device.Device
module Line_array = Mm_device.Line_array
module Waveform = Mm_device.Waveform
module Rng = Mm_device.Rng

type cell_role = Leg_cell of int | Rop_out_cell of int | Literal_cell of Literal.t

type plan = {
  circuit : Circuit.t;
  roles : cell_role array;
  shared_be : Literal.t array; (* per step *)
  cell_of_leg : int array;
  cell_of_rop : int array;
  cell_of_literal : (Literal.t * int) list;
}

let plan c =
  let c = Circuit.physicalize c in
  let n_legs = Circuit.n_legs c in
  let steps = Circuit.steps_per_leg c in
  (* shared BE rail: all legs must agree per step *)
  let shared_be =
    Array.init steps (fun s ->
        let be = c.Circuit.legs.(0).(s).Circuit.be in
        Array.iter
          (fun leg ->
            if not (Literal.equal leg.(s).Circuit.be be) then
              invalid_arg "Schedule.plan: legs disagree on the shared BE rail")
          c.Circuit.legs;
        be)
  in
  (* literal cells for literals read by R-ops or tapped by outputs *)
  let module LS = Set.Make (struct
    type t = Literal.t

    let compare = Stdlib.compare
  end) in
  let lit_inputs = ref LS.empty in
  let add_literal = function
    | Circuit.From_literal l -> lit_inputs := LS.add l !lit_inputs
    | Circuit.From_leg _ | Circuit.From_vop _ | Circuit.From_rop _ -> ()
  in
  Array.iter
    (fun { Circuit.in1; in2 } ->
      add_literal in1;
      add_literal in2)
    c.Circuit.rops;
  Array.iter add_literal c.Circuit.outputs;
  let lits = LS.elements !lit_inputs in
  let n_rops = Circuit.n_rops c in
  let roles =
    Array.of_list
      (List.init n_legs (fun l -> Leg_cell l)
      @ List.init n_rops (fun r -> Rop_out_cell r)
      @ List.map (fun l -> Literal_cell l) lits)
  in
  {
    circuit = c;
    roles;
    shared_be;
    cell_of_leg = Array.init n_legs Fun.id;
    cell_of_rop = Array.init n_rops (fun r -> n_legs + r);
    cell_of_literal = List.mapi (fun i l -> (l, n_legs + n_rops + i)) lits;
  }

let circuit t = t.circuit
let n_cells t = Array.length t.roles
let roles t = Array.copy t.roles

type run = {
  input : int;
  outputs : bool array;
  expected : int option;
  cycles : int;
  switches : int;
  waveform : Waveform.t;
}

let cell_of_source t = function
  | Circuit.From_leg l -> t.cell_of_leg.(l)
  | Circuit.From_vop (l, s) ->
    (* physicalize guarantees final taps *)
    assert (s = Circuit.steps_per_leg t.circuit - 1);
    t.cell_of_leg.(l)
  | Circuit.From_rop r -> t.cell_of_rop.(r)
  | Circuit.From_literal l -> List.assoc l t.cell_of_literal

let execute ?(params = Device.default_params) ?rng ?(faults = []) t ~input () =
  let rng = match rng with Some r -> r | None -> Rng.create 0x5eed in
  let c = t.circuit in
  let n = c.Circuit.arity in
  if input < 0 || input >= 1 lsl n then invalid_arg "Schedule.execute";
  let array = Line_array.create ~rng ~n:(n_cells t) ~params () in
  (* initialization phase (excluded from the trace, as in the paper):
     legs start at 0 (HRS), R-op outputs at their preset, literal cells at
     the literal's value for this input row. *)
  Array.iteri
    (fun cell role ->
      match role with
      | Leg_cell _ -> Line_array.set_states array [ (cell, false) ]
      | Rop_out_cell _ ->
        Line_array.set_states array [ (cell, Rop.output_preset c.Circuit.rop_kind) ]
      | Literal_cell l ->
        Line_array.set_states array [ (cell, Literal.eval n l input) ])
    t.roles;
  List.iter
    (fun (cell, fault) -> Device.inject_fault (Line_array.device array cell) fault)
    faults;
  let wf = Waveform.create array in
  (* V-op phase: one cycle per step, all legs in parallel on the shared
     rail; non-leg cells get the dummy TE = BE. *)
  let steps = Circuit.steps_per_leg c in
  for s = 0 to steps - 1 do
    let be = Literal.eval n t.shared_be.(s) input in
    let te cell =
      match t.roles.(cell) with
      | Leg_cell l -> Some (Literal.eval n c.Circuit.legs.(l).(s).Circuit.te input)
      | Rop_out_cell _ | Literal_cell _ -> None
    in
    let obs = Line_array.vop_cycle array ~te ~be in
    Waveform.record wf ~label:(Printf.sprintf "V-step %d" (s + 1)) obs
  done;
  (* R-op phase: strictly sequential. *)
  let fire_rop =
    match c.Circuit.rop_kind with
    | Rop.Nor -> Line_array.magic_nor array
    | Rop.Nimp -> Line_array.magic_nimp array
  in
  Array.iteri
    (fun i { Circuit.in1; in2 } ->
      let obs =
        fire_rop
          ~in1:(cell_of_source t in1)
          ~in2:(cell_of_source t in2)
          ~out:t.cell_of_rop.(i)
      in
      Waveform.record wf ~label:(Printf.sprintf "R-op R%d" (i + 1)) obs)
    c.Circuit.rops;
  (* readout: one cycle per output. *)
  let outputs =
    Array.mapi
      (fun o src ->
        let cell = cell_of_source t src in
        let value, _current = Line_array.read array cell in
        Waveform.record wf
          ~label:(Printf.sprintf "read out%d" (o + 1))
          (Line_array.read_cycle array cell);
        value)
      c.Circuit.outputs
  in
  {
    input;
    outputs;
    expected = None;
    cycles = Waveform.length wf;
    switches = Line_array.total_switches array;
    waveform = wf;
  }

let word_of outputs =
  let w = ref 0 in
  Array.iteri (fun o b -> if b then w := !w lor (1 lsl o)) outputs;
  !w

let verify ?params ?rng t spec =
  let n = Spec.arity spec in
  let failures = ref [] in
  for input = (1 lsl n) - 1 downto 0 do
    let rng = match rng with Some r -> Some (Rng.split r) | None -> None in
    let r = execute ?params ?rng t ~input () in
    if word_of r.outputs <> Spec.eval spec input then failures := input :: !failures
  done;
  !failures

let error_rate t spec ~variation ~trials ~seed =
  if trials <= 0 then invalid_arg "Schedule.error_rate";
  let params = Mm_device.Variation.apply variation Device.default_params in
  let n = Spec.arity spec in
  let rng = Rng.create seed in
  let rows = 1 lsl n in
  let failures = ref 0 in
  for _ = 1 to trials do
    for input = 0 to rows - 1 do
      let r = execute ~params ~rng:(Rng.split rng) t ~input () in
      if word_of r.outputs <> Spec.eval spec input then incr failures
    done
  done;
  float_of_int !failures /. float_of_int (trials * rows)
