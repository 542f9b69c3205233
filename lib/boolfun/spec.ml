type t = { name : string; arity : int; outputs : Truth_table.t array }

let make ~name outputs =
  if Array.length outputs = 0 then invalid_arg "Spec.make: no outputs";
  let arity = Truth_table.arity outputs.(0) in
  if not (Array.for_all (fun o -> Truth_table.arity o = arity) outputs) then
    invalid_arg "Spec.make: mixed arities";
  { name; arity; outputs = Array.copy outputs }

let of_fun ~name ~arity ~outputs f =
  make ~name
    (Array.init outputs (fun o ->
         Truth_table.of_fun arity (fun row -> f ~row ~output:o)))

let name t = t.name
let arity t = t.arity
let output_count t = Array.length t.outputs

let output t o =
  if o < 0 || o >= Array.length t.outputs then invalid_arg "Spec.output";
  t.outputs.(o)

let outputs t = Array.copy t.outputs

let eval t q =
  let word = ref 0 in
  Array.iteri
    (fun o tt -> if Truth_table.eval tt q then word := !word lor (1 lsl o))
    t.outputs;
  !word

let equal a b =
  a.arity = b.arity
  && Array.length a.outputs = Array.length b.outputs
  && Array.for_all2 Truth_table.equal a.outputs b.outputs

let pp ppf t =
  Format.fprintf ppf "@[<v>%s: %d inputs, %d outputs" t.name t.arity
    (Array.length t.outputs);
  Array.iteri
    (fun o tt -> Format.fprintf ppf "@,  f%d = %a" (o + 1) Truth_table.pp tt)
    t.outputs;
  Format.fprintf ppf "@]"
