module Spec = Mm_boolfun.Spec
module Tt = Mm_boolfun.Truth_table
module Literal = Mm_boolfun.Literal

type stats = {
  blocks : int;
  cache_hits : int;
  exact_blocks : int;
  fallback_blocks : int;
  mux_nors : int;
}

(* split on the variable whose cofactors are most balanced (closest
   popcounts), which tends to shrink both sides' support *)
let pick_split_var tt =
  let candidates = Tt.support tt in
  let score v =
    let c1 = Tt.popcount (Tt.cofactor tt v true) in
    let c0 = Tt.popcount (Tt.cofactor tt v false) in
    abs (c1 - c0)
  in
  match candidates with
  | [] -> invalid_arg "Heuristic: constant function has no split variable"
  | first :: rest ->
    List.fold_left (fun best v -> if score v < score best then v else best) first rest

(* synthesize one leaf block exactly on its projected support *)
let leaf_circuit ~taps ~timeout_per_block ~counters tt =
  let n = Tt.arity tt in
  let vars = Tt.support tt in
  match vars with
  | [] ->
    (* constant: no hardware at all *)
    let value = Tt.eval tt 0 in
    incr (fst counters);
    Circuit.make ~arity:n ~legs:[||] ~rops:[||]
      ~outputs:
        [| Circuit.From_literal (if value then Literal.Const1 else Literal.Const0) |]
      ()
  | _ ->
    let projected = Tt.project tt vars in
    let spec = Spec.make ~name:"block" [| projected |] in
    let exact_counter, fallback_counter = counters in
    (* closure-guided N_R search: V-op realizability (exact, from the
       Table III engine) tells us whether N_R = 0 is even possible, so the
       expensive UNSAT proofs at too-small N_R are skipped. *)
    let k = Tt.arity projected in
    let start_rops =
      if k <= 4 && Universality.vop_realizable projected then 0 else 1
    in
    let max_rops = Baseline.nor_count spec in
    let try_dims ~n_rops ~steps =
      let cfg =
        Encode.config ~taps
          ~n_legs:(max 1 (n_rops + 1))
          ~steps_per_leg:steps ~n_rops ()
      in
      Synth.solve_instance ~timeout:timeout_per_block cfg spec
    in
    let rec search n_rops =
      if n_rops > max_rops then None
      else
        match (try_dims ~n_rops ~steps:(k + 2)).Synth.verdict with
        | Synth.Sat c -> Some (n_rops, c)
        | Synth.Unsat | Synth.Timeout -> search (n_rops + 1)
    in
    (* one downward pass on the step count to shorten the merged window *)
    let tighten (n_rops, c) =
      let rec go best steps =
        if steps < 1 then best
        else
          match (try_dims ~n_rops ~steps).Synth.verdict with
          | Synth.Sat c' -> go c' (steps - 1)
          | Synth.Unsat | Synth.Timeout -> best
      in
      go c (Circuit.steps_per_leg c - 1)
    in
    let sub =
      match search start_rops with
      | Some found ->
        incr exact_counter;
        tighten found
      | None ->
        incr fallback_counter;
        Baseline.nor_network spec
    in
    Compose.rename_vars sub ~arity:n ~mapping:(Array.of_list vars)

(* a node is a circuit over the full arity with exactly one output *)
let rec node ~taps ~block_arity ~timeout_per_block ~cache ~counters
    ~cache_hits ~mux_count tt =
  let key = Tt.to_string tt in
  match Hashtbl.find_opt cache key with
  | Some c ->
    incr cache_hits;
    c
  | None ->
    let circuit =
      if List.length (Tt.support tt) <= block_arity then
        leaf_circuit ~taps ~timeout_per_block ~counters tt
      else begin
        let v = pick_split_var tt in
        let f0 = Tt.cofactor tt v false in
        let f1 = Tt.cofactor tt v true in
        let c0 =
          node ~taps ~block_arity ~timeout_per_block ~cache ~counters
            ~cache_hits ~mux_count f0
        in
        let c1 =
          node ~taps ~block_arity ~timeout_per_block ~cache ~counters
            ~cache_hits ~mux_count f1
        in
        let shell, remaps = Compose.merge_parallel [ c0; c1 ] in
        let r0, r1 =
          match remaps with [ a; b ] -> (a, b) | _ -> assert false
        in
        let out0 = r0 c0.Circuit.outputs.(0) in
        let out1 = r1 c1.Circuit.outputs.(0) in
        mux_count := !mux_count + 3;
        (* mux(v; f0, f1) = NOR(NOR(f0, v), NOR(f1, ~v)) *)
        Compose.with_extra_rops shell
          [
            (`Old out0, `Old (Circuit.From_literal (Literal.Pos v)));
            (`Old out1, `Old (Circuit.From_literal (Literal.Neg v)));
            (`New 0, `New 1);
          ]
          [| `New 2 |]
      end
    in
    Hashtbl.replace cache key circuit;
    circuit

let synthesize ?(taps = Encode.Any_vop) ?(block_arity = 4)
    ?(timeout_per_block = 20.) spec =
  if block_arity < 1 then invalid_arg "Heuristic.synthesize: block_arity < 1";
  let cache = Hashtbl.create 64 in
  let exact_counter = ref 0 and fallback_counter = ref 0 in
  let mux_count = ref 0 in
  let cache_hits = ref 0 in
  let node_cached tt =
    node ~taps ~block_arity ~timeout_per_block ~cache
      ~counters:(exact_counter, fallback_counter)
      ~cache_hits ~mux_count tt
  in
  let per_output =
    Array.to_list (Array.map node_cached (Spec.outputs spec))
  in
  let shell, remaps = Compose.merge_parallel per_output in
  let outputs =
    Array.of_list
      (List.map2
         (fun c remap -> remap c.Circuit.outputs.(0))
         per_output remaps)
  in
  let circuit = Compose.with_outputs shell outputs in
  (match Circuit.realizes circuit spec with
   | Ok () -> ()
   | Error row ->
     failwith (Printf.sprintf "Heuristic.synthesize: wrong on row %d" row));
  ( circuit,
    {
      blocks = !exact_counter + !fallback_counter;
      cache_hits = !cache_hits;
      exact_blocks = !exact_counter;
      fallback_blocks = !fallback_counter;
      mux_nors = !mux_count;
    } )
