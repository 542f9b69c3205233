module Tt = Mm_boolfun.Truth_table
module Spec = Mm_boolfun.Spec
module Engine = Mm_engine.Engine
module Circuit = Mm_core.Circuit

type kind = Mixed | R_only

type entry = {
  tt : Tt.t;
  kind : kind;
  circuit : Circuit.t;
  class_rep : Tt.t option;
  exact : bool;
  optimal : bool;
  legs : int;
  steps : int;
  rops : int;
}

type t = {
  cfg : Engine.config;
  memo : (string * kind, entry) Hashtbl.t;
  mutable lookups : int;
  mutable hits : int;
  mutable exact : int;
  mutable fallbacks : int;
}

let create cfg = { cfg; memo = Hashtbl.create 64; lookups = 0; hits = 0;
                   exact = 0; fallbacks = 0 }

let spec_of tt =
  let m = Tt.arity tt in
  Spec.make ~name:(Printf.sprintf "blk-n%d-%s" m (Tt.to_string tt)) [| tt |]

let probe t kind tt =
  let r_only = kind = R_only and spec = spec_of tt in
  let entry ~exact ~optimal ~class_rep c =
    { tt; kind; circuit = c; class_rep; exact; optimal;
      legs = Circuit.n_legs c; steps = Circuit.steps_per_leg c;
      rops = Circuit.n_rops c }
  in
  (* probed without a fallback: with none, any circuit is exact *)
  match
    Engine.probe_class ~r_only
      { t.cfg with Engine.fallback = Engine.No_fallback }
      spec
  with
  | Some p ->
    t.exact <- t.exact + 1;
    entry ~exact:true ~optimal:p.Engine.probe_optimal
      ~class_rep:p.Engine.probe_class_rep p.Engine.probe_circuit
  | None -> (
    (* budget gone, or no circuit within the search caps: the resolver's
       baseline fallback, the QMC→NOR network, is R-only (0 legs, literal
       inputs) and so valid for either kind *)
    match
      Engine.fallback ~r_only
        { t.cfg with Engine.fallback = Engine.Use_baseline }
        spec
    with
    | Some (c, _) ->
      t.fallbacks <- t.fallbacks + 1;
      entry ~exact:false ~optimal:false ~class_rep:None c
    | None ->
      invalid_arg
        (Printf.sprintf
           "Blocklib.lookup: no verified block for %s (the fallback emits NOR \
            R-ops only)"
           (Tt.to_string tt)))

let lookup t kind tt =
  let m = Tt.arity tt in
  if m < 1 || m > 4 then invalid_arg "Blocklib.lookup: arity must be 1..4";
  t.lookups <- t.lookups + 1;
  let key = (Tt.to_string tt, kind) in
  match Hashtbl.find_opt t.memo key with
  | Some e ->
    t.hits <- t.hits + 1;
    e
  | None ->
    let e = probe t kind tt in
    Hashtbl.add t.memo key e;
    e

let entries t = Hashtbl.fold (fun _ e acc -> e :: acc) t.memo []
let stats t = (t.lookups, t.hits, t.exact, t.fallbacks)
