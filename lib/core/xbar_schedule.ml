module Spec = Mm_boolfun.Spec
module Literal = Mm_boolfun.Literal
module Device = Mm_device.Device
module Crossbar = Mm_device.Crossbar
module Rng = Mm_device.Rng

type plan = {
  circuit : Circuit.t;
  shared_be : Literal.t array;
  lit_cols : (Literal.t * int) list; (* row-0 columns holding literals *)
  levels : int array; (* per R-op dependency level, 1-based *)
  depth : int;
  n_rows : int;
  n_cols : int;
}

(* Layout: row 0 hosts the V-legs and literal cells; R-op [i] owns row
   [i + 1] with its operand cells at columns 0/1 and its output at column 2.
   Gates of one dependency level live on distinct rows by construction and
   fire in a single parallel cycle. *)

let levelize = Circuit.rop_levels

let plan c =
  if c.Circuit.rop_kind <> Rop.Nor then
    invalid_arg "Xbar_schedule.plan: only MAGIC NOR circuits are schedulable";
  let c = Circuit.physicalize c in
  let steps = Circuit.steps_per_leg c in
  let shared_be =
    Array.init steps (fun s ->
        let be = c.Circuit.legs.(0).(s).Circuit.be in
        Array.iter
          (fun leg ->
            if not (Literal.equal leg.(s).Circuit.be be) then
              invalid_arg "Xbar_schedule.plan: legs disagree on the shared BE rail")
          c.Circuit.legs;
        be)
  in
  let module LS = Set.Make (struct
    type t = Literal.t

    let compare = Stdlib.compare
  end) in
  let lit_inputs = ref LS.empty in
  Array.iter
    (fun { Circuit.in1; in2 } ->
      List.iter
        (function
          | Circuit.From_literal l -> lit_inputs := LS.add l !lit_inputs
          | Circuit.From_leg _ | Circuit.From_vop _ | Circuit.From_rop _ -> ())
        [ in1; in2 ])
    c.Circuit.rops;
  let lit_cols =
    List.mapi (fun i l -> (l, Circuit.n_legs c + i)) (LS.elements !lit_inputs)
  in
  let levels = levelize c in
  let depth = Array.fold_left max 0 levels in
  let n_rows = Circuit.n_rops c + 1 in
  let n_cols = max 3 (Circuit.n_legs c + List.length lit_cols) in
  { circuit = c; shared_be; lit_cols; levels; depth; n_rows; n_cols }

let circuit t = t.circuit
let depth t = t.depth

let cycles t =
  Circuit.steps_per_leg t.circuit + (2 * t.depth) + Circuit.n_outputs t.circuit

type run = { outputs : bool array; cycles : int }

(* junction where a source's value lives once computed *)
let source_junction t = function
  | Circuit.From_leg l -> (0, l)
  | Circuit.From_vop (l, s) ->
    assert (s = Circuit.steps_per_leg t.circuit - 1);
    (0, l)
  | Circuit.From_literal l -> (0, List.assoc l t.lit_cols)
  | Circuit.From_rop r -> (r + 1, 2)

let execute ?(params = Device.default_params) ?rng t ~input () =
  let rng = match rng with Some r -> r | None -> Rng.create 0xcb5eed in
  let c = t.circuit in
  let n = c.Circuit.arity in
  if input < 0 || input >= 1 lsl n then invalid_arg "Xbar_schedule.execute";
  let xb = Crossbar.create ~rng ~rows:t.n_rows ~cols:t.n_cols ~params () in
  (* initialization (excluded from the cycle count, as in the paper):
     legs start at 0 (creation default), literal cells get their value,
     all gate outputs are preset *)
  List.iter
    (fun (l, col) -> Crossbar.set_state xb ~row:0 ~col (Literal.eval n l input))
    t.lit_cols;
  Array.iteri
    (fun i _ ->
      Crossbar.set_state xb ~row:(i + 1) ~col:2 (Rop.output_preset Rop.Nor))
    c.Circuit.rops;
  let cycle_count = ref 0 in
  (* V-phase on row 0, exactly as on the 1D array *)
  for s = 0 to Circuit.steps_per_leg c - 1 do
    let be = Literal.eval n t.shared_be.(s) input in
    let te col =
      if col < Circuit.n_legs c then
        Some (Literal.eval n c.Circuit.legs.(col).(s).Circuit.te input)
      else None
    in
    Crossbar.vop_cycle_row xb ~row:0 ~te ~be;
    incr cycle_count
  done;
  (* R-phase: per level, one transfer cycle then one parallel NOR cycle *)
  for level = 1 to t.depth do
    let gates = ref [] in
    Array.iteri
      (fun i lv ->
        if lv = level then begin
          let { Circuit.in1; in2 } = c.Circuit.rops.(i) in
          let row = i + 1 in
          Crossbar.transfer xb ~src:(source_junction t in1) ~dst:(row, 0);
          Crossbar.transfer xb ~src:(source_junction t in2) ~dst:(row, 1);
          gates := (row, 0, 1, 2) :: !gates
        end)
      t.levels;
    incr cycle_count;
    Crossbar.parallel_magic_nor xb !gates;
    incr cycle_count
  done;
  let outputs =
    Array.map
      (fun src ->
        let row, col = source_junction t src in
        fst (Crossbar.read xb ~row ~col))
      c.Circuit.outputs
  in
  { outputs; cycles = !cycle_count + Array.length outputs }

let verify t spec =
  let n = Spec.arity spec in
  let failures = ref [] in
  for input = (1 lsl n) - 1 downto 0 do
    let r = execute t ~input () in
    let word = ref 0 in
    Array.iteri (fun o b -> if b then word := !word lor (1 lsl o)) r.outputs;
    if !word <> Spec.eval spec input then failures := input :: !failures
  done;
  !failures

let latency_comparison c =
  let line = Circuit.n_steps c + Circuit.n_outputs c in
  let xb = plan c in
  (line, cycles xb)
