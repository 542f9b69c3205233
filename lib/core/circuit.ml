module Literal = Mm_boolfun.Literal
module Tt = Mm_boolfun.Truth_table
module Spec = Mm_boolfun.Spec

type vop = { te : Literal.t; be : Literal.t }

type source =
  | From_literal of Literal.t
  | From_leg of int
  | From_vop of int * int
  | From_rop of int

type rop = { in1 : source; in2 : source }

type t = {
  arity : int;
  rop_kind : Rop.kind;
  legs : vop array array;
  rops : rop array;
  outputs : source array;
}

let check_source t ~rop_bound = function
  | From_literal (Literal.Pos i | Literal.Neg i) ->
    if i < 1 || i > t.arity then invalid_arg "Circuit: literal out of range"
  | From_literal (Literal.Const0 | Literal.Const1) -> ()
  | From_leg l ->
    if l < 0 || l >= Array.length t.legs then invalid_arg "Circuit: bad leg index"
  | From_vop (l, s) ->
    if l < 0 || l >= Array.length t.legs then invalid_arg "Circuit: bad leg index";
    if s < 0 || s >= Array.length t.legs.(l) then
      invalid_arg "Circuit: bad V-op step index"
  | From_rop r ->
    if r < 0 || r >= rop_bound then invalid_arg "Circuit: R-op input must precede it"

let validate t =
  if t.arity < 1 then invalid_arg "Circuit: arity < 1";
  (match Array.length t.legs with
   | 0 -> ()
   | _ ->
     let len = Array.length t.legs.(0) in
     if not (Array.for_all (fun leg -> Array.length leg = len) t.legs) then
       invalid_arg "Circuit: ragged legs");
  Array.iteri
    (fun i { in1; in2 } ->
      check_source t ~rop_bound:i in1;
      check_source t ~rop_bound:i in2)
    t.rops;
  Array.iter (check_source t ~rop_bound:(Array.length t.rops)) t.outputs

let make ~arity ?(rop_kind = Rop.Nor) ~legs ~rops ~outputs () =
  let t = { arity; rop_kind; legs; rops; outputs } in
  validate t;
  t

(* One-pass evaluation. A literal's table is built at most once and only
   when something reads it (tiny circuits pay for nothing they don't use);
   a leg is replayed once, keeping the table after every step; R-ops are
   computed once each, in order. *)
type evaluator = {
  circuit : t;
  literals : Tt.t option array;  (* by [Literal.to_index] *)
  prefixes : Tt.t array option array;  (* [.(l).(s)]: leg [l] after step [s] *)
}

let evaluator c =
  {
    circuit = c;
    literals = Array.make (Literal.count c.arity) None;
    prefixes = Array.make (Array.length c.legs) None;
  }

let literal_table ev l =
  let i = Literal.to_index ev.circuit.arity l in
  match ev.literals.(i) with
  | Some tt -> tt
  | None ->
    let tt = Literal.table ev.circuit.arity l in
    ev.literals.(i) <- Some tt;
    tt

let leg_table ev ~leg ~step =
  if step < 0 then literal_table ev Literal.Const0
  else
    match ev.prefixes.(leg) with
    | Some p -> p.(step)
    | None ->
      let acc = ref (literal_table ev Literal.Const0) in
      let p =
        Array.map
          (fun { te; be } ->
            acc :=
              Vop.apply_fn !acc ~te:(literal_table ev te)
                ~be:(literal_table ev be);
            !acc)
          ev.circuit.legs.(leg)
      in
      ev.prefixes.(leg) <- Some p;
      p.(step)

let source_table ev rops = function
  | From_literal l -> literal_table ev l
  | From_leg l ->
    leg_table ev ~leg:l ~step:(Array.length ev.circuit.legs.(l) - 1)
  | From_vop (l, s) -> leg_table ev ~leg:l ~step:s
  | From_rop r -> rops.(r)

let rop_tables ev =
  let c = ev.circuit in
  let values = Array.make (Array.length c.rops) (literal_table ev Literal.Const0) in
  Array.iteri
    (fun i { in1; in2 } ->
      values.(i) <-
        Rop.apply c.rop_kind (source_table ev values in1)
          (source_table ev values in2))
    c.rops;
  values

let leg_value t ~leg ~step = leg_table (evaluator t) ~leg ~step

let rop_values t = rop_tables (evaluator t)

let rop_value t i = (rop_values t).(i)

let source_value t src =
  let ev = evaluator t in
  source_table ev (rop_tables ev) src

let output_tables t =
  let ev = evaluator t in
  let values = rop_tables ev in
  Array.map (source_table ev values) t.outputs

let eval t row =
  let tables = output_tables t in
  let word = ref 0 in
  Array.iteri
    (fun o tt -> if Tt.eval tt row then word := !word lor (1 lsl o))
    tables;
  !word

let realizes t spec =
  if Spec.arity spec <> t.arity then Error 0
  else begin
    let tables = output_tables t in
    if Array.length tables <> Spec.output_count spec then Error 0
    else begin
      let bad = ref None in
      for row = (1 lsl t.arity) - 1 downto 0 do
        if Array.exists Fun.id
             (Array.mapi
                (fun o tt -> Tt.eval tt row <> Tt.eval (Spec.output spec o) row)
                tables)
        then bad := Some row
      done;
      match !bad with None -> Ok () | Some row -> Error row
    end
  end

(* ASAP dependency level of each R-op (1-based); literals, legs and V-op
   taps are level 0. The maximum is the R-phase critical path — the cycle
   lower bound a row-parallel scheduler chases. *)
let rop_levels t =
  let n = Array.length t.rops in
  let level = Array.make n 1 in
  Array.iteri
    (fun i { in1; in2 } ->
      let of_src = function
        | From_rop r -> level.(r)
        | From_literal _ | From_leg _ | From_vop _ -> 0
      in
      level.(i) <- 1 + max (of_src in1) (of_src in2))
    t.rops;
  level

let rop_depth t = Array.fold_left max 0 (rop_levels t)

let n_legs t = Array.length t.legs
let steps_per_leg t = if n_legs t = 0 then 0 else Array.length t.legs.(0)
let n_vops t = n_legs t * steps_per_leg t
let n_rops t = Array.length t.rops
let n_outputs t = Array.length t.outputs
let n_steps t = steps_per_leg t + n_rops t

module Int_set = Set.Make (Int)

(* Distinct tapped steps per leg, where leg-final references count as the
   last step. *)
let taps_per_leg t =
  let taps = Array.make (n_legs t) Int_set.empty in
  let note = function
    | From_leg l -> taps.(l) <- Int_set.add (Array.length t.legs.(l) - 1) taps.(l)
    | From_vop (l, s) -> taps.(l) <- Int_set.add s taps.(l)
    | From_literal _ | From_rop _ -> ()
  in
  Array.iter (fun { in1; in2 } -> note in1; note in2) t.rops;
  Array.iter note t.outputs;
  taps

let final_taps_only t =
  let ok = ref true in
  let check = function
    | From_vop (l, s) -> if s <> Array.length t.legs.(l) - 1 then ok := false
    | From_literal _ | From_leg _ | From_rop _ -> ()
  in
  Array.iter (fun { in1; in2 } -> check in1; check in2) t.rops;
  Array.iter check t.outputs;
  !ok

let n_devices t =
  let module LS = Set.Make (struct
    type nonrec t = Literal.t

    let compare = Stdlib.compare
  end) in
  let literal_inputs = ref LS.empty in
  Array.iter
    (fun { in1; in2 } ->
      List.iter
        (function
          | From_literal l -> literal_inputs := LS.add l !literal_inputs
          | From_leg _ | From_vop _ | From_rop _ -> ())
        [ in1; in2 ])
    t.rops;
  let leg_devices =
    Array.fold_left
      (fun acc taps -> acc + max 1 (Int_set.cardinal taps))
      0 (taps_per_leg t)
  in
  leg_devices + n_rops t + LS.cardinal !literal_inputs

let physicalize t =
  if final_taps_only t then t
  else begin
    let len = steps_per_leg t in
    let taps = taps_per_leg t in
    (* replica index for each (leg, tapped step) *)
    let mapping = Hashtbl.create 16 in
    let new_legs = ref [] in
    let count = ref 0 in
    Array.iteri
      (fun l tap_set ->
        let steps =
          if Int_set.is_empty tap_set then [ len - 1 ] else Int_set.elements tap_set
        in
        List.iter
          (fun s ->
            (* prefix up to s, then hold: TE = BE of the original schedule *)
            let replica =
              Array.init len (fun i ->
                  if i <= s then t.legs.(l).(i)
                  else { te = t.legs.(l).(i).be; be = t.legs.(l).(i).be })
            in
            Hashtbl.replace mapping (l, s) !count;
            new_legs := replica :: !new_legs;
            incr count)
          steps)
      taps;
    let remap = function
      | From_literal _ as src -> src
      | From_rop _ as src -> src
      | From_leg l -> From_leg (Hashtbl.find mapping (l, len - 1))
      | From_vop (l, s) -> From_leg (Hashtbl.find mapping (l, s))
    in
    let legs = Array.of_list (List.rev !new_legs) in
    let rops =
      Array.map (fun { in1; in2 } -> { in1 = remap in1; in2 = remap in2 }) t.rops
    in
    let outputs = Array.map remap t.outputs in
    make ~arity:t.arity ~rop_kind:t.rop_kind ~legs ~rops ~outputs ()
  end

let pp_source ppf = function
  | From_literal l -> Format.fprintf ppf "%s" (Literal.to_string l)
  | From_leg l -> Format.fprintf ppf "V%d" (l + 1)
  | From_vop (l, s) -> Format.fprintf ppf "V%d.%d" (l + 1) (s + 1)
  | From_rop r -> Format.fprintf ppf "R%d" (r + 1)

let pp ppf t =
  Format.fprintf ppf "@[<v>mixed-mode circuit: n=%d, %d legs x %d steps, %d %a R-ops, %d outputs"
    t.arity (n_legs t) (steps_per_leg t) (n_rops t) Rop.pp t.rop_kind
    (n_outputs t);
  Array.iteri
    (fun l ops ->
      Format.fprintf ppf "@,  leg V%d:" (l + 1);
      Array.iteri
        (fun s { te; be } ->
          Format.fprintf ppf " [V%d.%d TE=%s BE=%s]" (l + 1) (s + 1)
            (Literal.to_string te) (Literal.to_string be))
        ops)
    t.legs;
  Array.iteri
    (fun i { in1; in2 } ->
      Format.fprintf ppf "@,  R%d = %a(%a, %a)" (i + 1) Rop.pp t.rop_kind
        pp_source in1 pp_source in2)
    t.rops;
  Array.iteri
    (fun o src -> Format.fprintf ppf "@,  out%d = %a" (o + 1) pp_source src)
    t.outputs;
  Format.fprintf ppf "@]"
