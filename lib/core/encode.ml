module Spec = Mm_boolfun.Spec
module Literal = Mm_boolfun.Literal
module Tt = Mm_boolfun.Truth_table
module Builder = Mm_cnf.Builder
module Cardinality = Mm_cnf.Cardinality
module Lit = Mm_sat.Lit

type style = Direct | Compact
type taps = Final_only | Any_vop

type config = {
  n_legs : int;
  steps_per_leg : int;
  n_rops : int;
  rop_kind : Rop.kind;
  shared_be : bool;
  style : style;
  taps : taps;
  symmetry_breaking : bool;
  allow_literal_rop_inputs : bool;
  forced_te : (int * int * Literal.t) list;
  forced_be : (int * Literal.t) list;
}

let config ?(rop_kind = Rop.Nor) ?(shared_be = true) ?(style = Compact)
    ?(taps = Final_only) ?(symmetry_breaking = false)
    ?(allow_literal_rop_inputs = true) ?(forced_te = []) ?(forced_be = [])
    ~n_legs ~steps_per_leg ~n_rops () =
  if n_legs < 0 || steps_per_leg < 0 || n_rops < 0 then
    invalid_arg "Encode.config: negative dimension";
  let n_legs, steps_per_leg =
    if n_legs = 0 || steps_per_leg = 0 then (0, 0) else (n_legs, steps_per_leg)
  in
  {
    n_legs;
    steps_per_leg;
    n_rops;
    rop_kind;
    shared_be;
    style;
    taps;
    symmetry_breaking;
    allow_literal_rop_inputs;
    forced_te;
    forced_be;
  }

(* A tap candidate, as both a decode-time source and an encode-time value. *)
type value = Const of bool | Var of int

type t = {
  cfg : config;
  n : int;
  te_sel : int array array array; (* leg, step, literal -> selector var *)
  be_sel : int array array array; (* leg, step, literal (leg 0 only if shared) *)
  gin1 : int array array; (* rop -> candidate -> selector var *)
  gin2 : int array array;
  gout : int array array; (* output -> candidate -> selector var *)
  rop_sources : Circuit.source array array;
  out_sources : Circuit.source array;
}

let pos = Lit.pos
let neg v = Lit.negate (Lit.pos v)

(* v' <-> Vop(prev, te, be) where each operand is a value (constant or
   variable). Emitting through [clause] lets Direct mode prepend selector
   guards. The implicant form is
   v' = (te ∧ ¬be) ∨ (prev ∧ te) ∨ (prev ∧ ¬be). *)
let vop_semantics ~clause ~v' ~prev ~te ~be =
  (* translate a value into Some lit (constant -> None + bool) *)
  let lit_of = function Var x -> `L (pos x) | Const b -> `C b in
  let emit lits =
    (* a clause over (polarity, operand) pairs; constants simplify *)
    let rec go acc = function
      | [] -> clause (List.rev acc)
      | (want_true, operand) :: rest -> (
        match lit_of operand with
        | `C b -> if b = want_true then () (* satisfied *) else go acc rest
        | `L l -> go ((if want_true then l else Lit.negate l) :: acc) rest)
    in
    go [] lits
  in
  let vv = Var v' in
  (* ¬v' ∨ ¬[implicant of F̄]  /  v' ∨ ¬[implicant of F] *)
  emit [ (false, vv); (true, te); (false, be) ];
  emit [ (false, vv); (true, prev); (true, te) ];
  emit [ (false, vv); (true, prev); (false, be) ];
  emit [ (true, vv); (false, te); (true, be) ];
  emit [ (true, vv); (false, prev); (false, te) ];
  emit [ (true, vv); (false, prev); (true, be) ]

(* r <-> R(a, b) for the chosen R-op kind, same conventions. *)
let rop_semantics kind ~clause ~r ~a ~b =
  let lit_of = function Var x -> `L (pos x) | Const c -> `C c in
  let emit lits =
    let rec go acc = function
      | [] -> clause (List.rev acc)
      | (want_true, operand) :: rest -> (
        match lit_of operand with
        | `C c -> if c = want_true then () else go acc rest
        | `L l -> go ((if want_true then l else Lit.negate l) :: acc) rest)
    in
    go [] lits
  in
  let rv = Var r in
  match kind with
  | Rop.Nor ->
    emit [ (false, rv); (false, a) ];
    emit [ (false, rv); (false, b) ];
    emit [ (true, rv); (true, a); (true, b) ]
  | Rop.Nimp ->
    emit [ (false, rv); (true, a) ];
    emit [ (false, rv); (false, b) ];
    emit [ (true, rv); (false, a); (true, b) ]

let exactly_one b ~style lits =
  let encoding =
    match style with
    | Direct -> Cardinality.Pairwise
    | Compact -> Cardinality.Sequential
  in
  Cardinality.exactly_one ~encoding b (Array.to_list (Array.map pos lits))

(* ---------------------------------------------------------------------- *)

(* Activation selectors for the incremental budget ladder: one variable per
   leg, per V-step (shared across legs) and per R-op. The formula is built
   once at the maximum dimensions; assuming a prefix of each vector true and
   the rest false restricts it to exactly the sub-budget instance:

   - the V-op semantics of (leg, step) only apply while both are active;
   - a deactivated step on an active leg is FORCED to hold the previous
     state (not merely released): leg-final taps read the last row, so a
     floating suffix step could invent a value the active prefix cannot
     produce, making a SAT answer under assumptions decode to a circuit
     that does not realize f at the truncated dimensions;
   - R-op semantics only apply to active R-ops, and an active R-op (or an
     output, which is always active) may only select active sources. The
     exclusion is released for inactive R-ops so their exactly-one input
     selectors stay trivially satisfiable. *)
type activation = {
  leg_act : int array;
  step_act : int array;
  rop_act : int array;
  live : int array array;
  susp : int array array;
}

let build_gen act b cfg spec =
  let n = Spec.arity spec in
  let nt = 1 lsl n in
  let nlits = Literal.count n in
  let n_out = Spec.output_count spec in
  let lit_val j q = Literal.eval n (Literal.of_index n j) q in
  let fresh_grid rows cols = Array.init rows (fun _ -> Array.init cols (fun _ -> Builder.fresh_var b)) in
  let fresh_cube a bb c =
    Array.init a (fun _ -> fresh_grid bb c)
  in

  (* --- literal truth-table variables (Direct only, Eq. 4) --- *)
  let l_var =
    match cfg.style with
    | Compact -> [||]
    | Direct ->
      let l = fresh_grid nlits nt in
      Array.iteri
        (fun j row ->
          Array.iteri
            (fun q v -> Builder.fix b (pos v) (lit_val j q))
            row)
        l;
      l
  in

  (* --- electrode selectors --- *)
  let te_sel = fresh_cube cfg.n_legs cfg.steps_per_leg nlits in
  let be_sel =
    match cfg.style, cfg.shared_be with
    | Compact, true ->
      (* one shared selector bank per step, stored under leg 0 *)
      if cfg.n_legs = 0 then [||] else [| fresh_grid cfg.steps_per_leg nlits |]
    | Compact, false | Direct, _ -> fresh_cube cfg.n_legs cfg.steps_per_leg nlits
  in
  let be_sel_of leg step =
    match cfg.style, cfg.shared_be with
    | Compact, true -> be_sel.(0).(step)
    | Compact, false | Direct, _ -> be_sel.(leg).(step)
  in

  (* Eq. 6 (and its BE twin) *)
  Array.iter (Array.iter (fun sel -> exactly_one b ~style:cfg.style sel)) te_sel;
  Array.iter (Array.iter (fun sel -> exactly_one b ~style:cfg.style sel)) be_sel;

  (* Direct + shared BE: pairwise equivalence clauses as in the paper *)
  (match cfg.style, cfg.shared_be with
   | Direct, true ->
     for step = 0 to cfg.steps_per_leg - 1 do
       for leg = 1 to cfg.n_legs - 1 do
         for k = 0 to nlits - 1 do
           Builder.add b [ neg be_sel.(leg).(step).(k); pos be_sel.(0).(step).(k) ];
           Builder.add b [ pos be_sel.(leg).(step).(k); neg be_sel.(0).(step).(k) ]
         done
       done
     done
   | Direct, false | Compact, _ -> ());

  (* --- V-op value variables and semantics (Eq. 5) --- *)
  let v_var = fresh_cube cfg.n_legs cfg.steps_per_leg nt in
  (match cfg.style with
   | Compact ->
     (* per-row electrode signals *)
     let te_sig = fresh_cube cfg.n_legs cfg.steps_per_leg nt in
     let be_sig =
       if cfg.shared_be then
         if cfg.n_legs = 0 then [||] else [| fresh_grid cfg.steps_per_leg nt |]
       else fresh_cube cfg.n_legs cfg.steps_per_leg nt
     in
     let be_sig_of leg step = if cfg.shared_be then be_sig.(0).(step) else be_sig.(leg).(step) in
     (* signal <- selected literal's row value *)
     let bind_signal sel sig_row =
       for q = 0 to nt - 1 do
         for j = 0 to nlits - 1 do
           if lit_val j q then Builder.add b [ neg sel.(j); pos sig_row.(q) ]
           else Builder.add b [ neg sel.(j); neg sig_row.(q) ]
         done
       done
     in
     for leg = 0 to cfg.n_legs - 1 do
       for step = 0 to cfg.steps_per_leg - 1 do
         bind_signal te_sel.(leg).(step) te_sig.(leg).(step)
       done
     done;
     if cfg.shared_be then begin
       if cfg.n_legs > 0 then
         for step = 0 to cfg.steps_per_leg - 1 do
           bind_signal be_sel.(0).(step) be_sig.(0).(step)
         done
     end
     else
       for leg = 0 to cfg.n_legs - 1 do
         for step = 0 to cfg.steps_per_leg - 1 do
           bind_signal be_sel.(leg).(step) be_sig.(leg).(step)
         done
       done;
     (* state evolution *)
     for leg = 0 to cfg.n_legs - 1 do
       for step = 0 to cfg.steps_per_leg - 1 do
         (* activation: semantics only bind while leg and step are active.
            [live] is the defined product leg_act ∧ step_act, so the guard
            costs one literal per clause instead of two. *)
         let guard =
           match act with
           | None -> []
           | Some a -> [ neg a.live.(leg).(step) ]
         in
         for q = 0 to nt - 1 do
           let prev =
             if step = 0 then Const false else Var v_var.(leg).(step - 1).(q)
           in
           vop_semantics
             ~clause:(fun c -> Builder.add b (guard @ c))
             ~v':v_var.(leg).(step).(q) ~prev
             ~te:(Var te_sig.(leg).(step).(q))
             ~be:(Var (be_sig_of leg step).(q))
         done;
         (* active leg + deactivated step: forced no-op (hold) so leg-final
            taps read through the deactivated suffix *)
         (match act with
          | None -> ()
          | Some a ->
            let hold = [ neg a.susp.(leg).(step) ] in
            for q = 0 to nt - 1 do
              let v' = v_var.(leg).(step).(q) in
              if step = 0 then Builder.add b (hold @ [ neg v' ])
              else begin
                let prev = v_var.(leg).(step - 1).(q) in
                Builder.add b (hold @ [ neg v'; pos prev ]);
                Builder.add b (hold @ [ pos v'; neg prev ])
              end
            done)
       done
     done
   | Direct ->
     (* guarded by the selector pair, per Eq. 5 *)
     for leg = 0 to cfg.n_legs - 1 do
       for step = 0 to cfg.steps_per_leg - 1 do
         for j = 0 to nlits - 1 do
           for k = 0 to nlits - 1 do
             let guard =
               [ neg te_sel.(leg).(step).(j); neg be_sel.(leg).(step).(k) ]
             in
             for q = 0 to nt - 1 do
               let prev =
                 if step = 0 then Var l_var.(0).(q)
                 else Var v_var.(leg).(step - 1).(q)
               in
               vop_semantics
                 ~clause:(fun c -> Builder.add b (guard @ c))
                 ~v':v_var.(leg).(step).(q) ~prev
                 ~te:(Var l_var.(j).(q)) ~be:(Var l_var.(k).(q))
             done
           done
         done
       done
     done);

  (* --- tap candidates --- *)
  let leg_final leg = v_var.(leg).(cfg.steps_per_leg - 1) in
  let r_var = fresh_grid cfg.n_rops nt in
  (* base candidates shared by R-ops and outputs: literals then legs/v-ops *)
  let base_candidates =
    let lits =
      List.init nlits (fun j ->
          let src = Circuit.From_literal (Literal.of_index n j) in
          let value q =
            match cfg.style with
            | Compact -> Const (lit_val j q)
            | Direct -> Var l_var.(j).(q)
          in
          (src, value))
    in
    let vops =
      match cfg.taps with
      | Final_only ->
        List.init cfg.n_legs (fun leg ->
            (Circuit.From_leg leg, fun q -> Var (leg_final leg).(q)))
      | Any_vop ->
        List.concat
          (List.init cfg.n_legs (fun leg ->
               List.init cfg.steps_per_leg (fun step ->
                   ( Circuit.From_vop (leg, step),
                     fun q -> Var v_var.(leg).(step).(q) ))))
    in
    lits @ vops
  in
  let rop_candidates i =
    base_candidates
    @ List.init i (fun r -> (Circuit.From_rop r, fun q -> Var r_var.(r).(q)))
  in
  let out_candidates = rop_candidates cfg.n_rops in

  (* filter literal inputs to R-ops when disallowed *)
  let filter_lits cands =
    if cfg.allow_literal_rop_inputs then cands
    else
      List.filter
        (fun (src, _) ->
          match src with Circuit.From_literal _ -> false | _ -> true)
        cands
  in

  (* --- R-ops (Eqs. 7, 8) --- *)
  let rop_cand_arrays =
    Array.init cfg.n_rops (fun i -> Array.of_list (filter_lits (rop_candidates i)))
  in
  let gin1 =
    Array.init cfg.n_rops (fun i ->
        Array.init (Array.length rop_cand_arrays.(i)) (fun _ -> Builder.fresh_var b))
  in
  let gin2 =
    Array.init cfg.n_rops (fun i ->
        Array.init (Array.length rop_cand_arrays.(i)) (fun _ -> Builder.fresh_var b))
  in
  Array.iteri
    (fun i sel ->
      if Array.length sel = 0 then invalid_arg "Encode.build: R-op has no candidates";
      exactly_one b ~style:cfg.style sel;
      exactly_one b ~style:cfg.style gin2.(i))
    gin1;
  (match cfg.style with
   | Compact ->
     (* per-row input signals, linear in the candidate count *)
     let in1_sig = fresh_grid cfg.n_rops nt in
     let in2_sig = fresh_grid cfg.n_rops nt in
     let bind gsel sig_row cands =
       Array.iteri
         (fun jc (_, value) ->
           for q = 0 to nt - 1 do
             match value q with
             | Const true -> Builder.add b [ neg gsel.(jc); pos sig_row.(q) ]
             | Const false -> Builder.add b [ neg gsel.(jc); neg sig_row.(q) ]
             | Var x ->
               Builder.add b [ neg gsel.(jc); neg sig_row.(q); pos x ];
               Builder.add b [ neg gsel.(jc); pos sig_row.(q); neg x ]
           done)
         cands
     in
     for i = 0 to cfg.n_rops - 1 do
       bind gin1.(i) in1_sig.(i) rop_cand_arrays.(i);
       bind gin2.(i) in2_sig.(i) rop_cand_arrays.(i);
       (* activation: an inactive R-op's semantics are released entirely *)
       let guard =
         match act with None -> [] | Some a -> [ neg a.rop_act.(i) ]
       in
       for q = 0 to nt - 1 do
         rop_semantics cfg.rop_kind
           ~clause:(fun c -> Builder.add b (guard @ c))
           ~r:r_var.(i).(q)
           ~a:(Var in1_sig.(i).(q)) ~b:(Var in2_sig.(i).(q))
       done
     done
   | Direct ->
     for i = 0 to cfg.n_rops - 1 do
       let cands = rop_cand_arrays.(i) in
       Array.iteri
         (fun jc (_, value1) ->
           Array.iteri
             (fun kc (_, value2) ->
               let guard = [ neg gin1.(i).(jc); neg gin2.(i).(kc) ] in
               for q = 0 to nt - 1 do
                 rop_semantics cfg.rop_kind
                   ~clause:(fun c -> Builder.add b (guard @ c))
                   ~r:r_var.(i).(q) ~a:(value1 q) ~b:(value2 q)
               done)
             cands)
         cands
     done);

  (* --- outputs (Eqs. 9, 10) --- *)
  let out_cand_array = Array.of_list out_candidates in
  if Array.length out_cand_array = 0 then
    invalid_arg "Encode.build: no sources for outputs";
  let gout = fresh_grid n_out (Array.length out_cand_array) in
  Array.iter (fun sel -> exactly_one b ~style:cfg.style sel) gout;
  (match cfg.style with
   | Compact ->
     for o = 0 to n_out - 1 do
       let expected q = Tt.eval (Spec.output spec o) q in
       Array.iteri
         (fun jc (_, value) ->
           (* constants: forbid the selector outright on any mismatch *)
           let mismatch = ref false in
           for q = 0 to nt - 1 do
             match value q with
             | Const c -> if c <> expected q then mismatch := true
             | Var x ->
               if expected q then Builder.add b [ neg gout.(o).(jc); pos x ]
               else Builder.add b [ neg gout.(o).(jc); neg x ]
           done;
           if !mismatch then Builder.add b [ neg gout.(o).(jc) ])
         out_cand_array
     done
   | Direct ->
     (* o variables pinned by unit clauses, then selector-guarded equality *)
     let o_var = fresh_grid n_out nt in
     for o = 0 to n_out - 1 do
       for q = 0 to nt - 1 do
         Builder.fix b (pos o_var.(o).(q)) (Tt.eval (Spec.output spec o) q)
       done;
       Array.iteri
         (fun jc (_, value) ->
           for q = 0 to nt - 1 do
             match value q with
             | Const _ -> assert false (* Direct mode has no constants *)
             | Var x ->
               Builder.add b [ neg gout.(o).(jc); neg o_var.(o).(q); pos x ];
               Builder.add b [ neg gout.(o).(jc); pos o_var.(o).(q); neg x ]
           done)
         out_cand_array
     done);

  (* --- activation: selecting a source requires that source be active --- *)
  (match act with
   | None -> ()
   | Some a ->
     let src_requires = function
       | Circuit.From_literal _ -> []
       | Circuit.From_leg l -> [ pos a.leg_act.(l) ]
       | Circuit.From_vop (l, s) -> [ pos a.live.(l).(s) ]
       | Circuit.From_rop r -> [ pos a.rop_act.(r) ]
     in
     let exclude release gsel cands =
       Array.iteri
         (fun jc (src, _) ->
           List.iter
             (fun need -> Builder.add b (release @ [ neg gsel.(jc); need ]))
             (src_requires src))
         cands
     in
     for i = 0 to cfg.n_rops - 1 do
       (* released when the selecting R-op is itself inactive, so its
          exactly-one input groups stay satisfiable at every budget point *)
       let release = [ neg a.rop_act.(i) ] in
       exclude release gin1.(i) rop_cand_arrays.(i);
       exclude release gin2.(i) rop_cand_arrays.(i)
     done;
     for o = 0 to n_out - 1 do
       exclude [] gout.(o) out_cand_array
     done);

  (* --- designer constraints --- *)
  List.iter
    (fun (leg, step, l) ->
      if leg < 0 || leg >= cfg.n_legs || step < 0 || step >= cfg.steps_per_leg
      then invalid_arg "Encode.build: forced_te out of range";
      Builder.fix b (pos te_sel.(leg).(step).(Literal.to_index n l)) true)
    cfg.forced_te;
  List.iter
    (fun (step, l) ->
      if step < 0 || step >= cfg.steps_per_leg then
        invalid_arg "Encode.build: forced_be out of range";
      Builder.fix b (pos (be_sel_of 0 step).(Literal.to_index n l)) true)
    cfg.forced_be;

  (* --- symmetry breaking --- *)
  if cfg.symmetry_breaking then begin
    (* commutative R-ops: w.l.o.g. candidate index of in1 >= that of in2 *)
    if Rop.commutative cfg.rop_kind then
      for i = 0 to cfg.n_rops - 1 do
        let m = Array.length gin1.(i) in
        for j = 0 to m - 1 do
          for k = j + 1 to m - 1 do
            Builder.add b [ neg gin1.(i).(j); neg gin2.(i).(k) ]
          done
        done
      done;
    (* legs are interchangeable units: order them by the TE selector of the
       first step (ties left unbroken, which is still sound). Disabled when
       the designer pinned specific legs. *)
    if cfg.forced_te = [] && cfg.n_legs > 1 && cfg.steps_per_leg > 0 then
      for leg = 0 to cfg.n_legs - 2 do
        for j = 0 to nlits - 1 do
          for k = 0 to j - 1 do
            Builder.add b [ neg te_sel.(leg).(0).(j); neg te_sel.(leg + 1).(0).(k) ]
          done
        done
      done
  end;

  {
    cfg;
    n;
    te_sel;
    be_sel;
    gin1;
    gin2;
    gout;
    rop_sources = Array.map (Array.map fst) rop_cand_arrays;
    out_sources = Array.map fst out_cand_array;
  }

let build b cfg spec = build_gen None b cfg spec

let build_with_activation b cfg spec =
  if cfg.style <> Compact then
    invalid_arg "Encode.build_with_activation: requires Compact style";
  (* activation variables first: chained so a single boundary assumption
     pins the whole vector, and dense so assumption arrays stay small *)
  let fresh k = Array.init k (fun _ -> Builder.fresh_var b) in
  let leg_act = fresh cfg.n_legs in
  let step_act = fresh cfg.steps_per_leg in
  let rop_act = fresh cfg.n_rops in
  let chain v = Builder.chain_implies b (Array.map pos v) in
  chain leg_act;
  chain step_act;
  chain rop_act;
  (* Product literals: every clause of the V-machine is gated by one
     literal instead of two. Both implication directions are required —
     a [live] floating true on a deactivated step would impose V-op
     semantics the hold clauses contradict, and a floating [susp] would
     pin an active step to holding; either is a spurious UNSAT. *)
  let product define =
    Array.init cfg.n_legs (fun l ->
        Array.init cfg.steps_per_leg (fun s ->
            let v = Builder.fresh_var b in
            define v leg_act.(l) step_act.(s);
            v))
  in
  let live =
    (* live(l,s) <-> leg_act(l) /\ step_act(s) *)
    product (fun v la sa ->
        Builder.add b [ neg v; pos la ];
        Builder.add b [ neg v; pos sa ];
        Builder.add b [ pos v; neg la; neg sa ])
  in
  let susp =
    (* susp(l,s) <-> leg_act(l) /\ ~step_act(s) *)
    product (fun v la sa ->
        Builder.add b [ neg v; pos la ];
        Builder.add b [ neg v; neg sa ];
        Builder.add b [ pos v; neg la; pos sa ])
  in
  let a = { leg_act; step_act; rop_act; live; susp } in
  let t = build_gen (Some a) b cfg spec in
  (t, a)

let selected ~value sel what =
  let chosen = ref [] in
  Array.iteri (fun j v -> if value v then chosen := j :: !chosen) sel;
  match !chosen with
  | [ j ] -> j
  | l ->
    failwith
      (Printf.sprintf "Encode.decode: %s selector has %d true entries" what
         (List.length l))

let decode_prefix t ~value ~n_legs ~steps_per_leg ~n_rops =
  let cfg = t.cfg in
  if
    n_legs < 0 || n_legs > cfg.n_legs
    || steps_per_leg < 0
    || steps_per_leg > cfg.steps_per_leg
    || n_rops < 0
    || n_rops > cfg.n_rops
  then invalid_arg "Encode.decode_prefix: dimensions exceed the encoding";
  (* same normalization as [config]: no legs and no steps go together *)
  let n_legs, steps_per_leg =
    if n_legs = 0 || steps_per_leg = 0 then (0, 0) else (n_legs, steps_per_leg)
  in
  let be_sel_of leg step =
    match cfg.style, cfg.shared_be with
    | Compact, true -> t.be_sel.(0).(step)
    | Compact, false | Direct, _ -> t.be_sel.(leg).(step)
  in
  let legs =
    Array.init n_legs (fun leg ->
        Array.init steps_per_leg (fun step ->
            let te_j = selected ~value t.te_sel.(leg).(step) "TE" in
            let be_j = selected ~value (be_sel_of leg step) "BE" in
            {
              Circuit.te = Literal.of_index t.n te_j;
              be = Literal.of_index t.n be_j;
            }))
  in
  let rops =
    Array.init n_rops (fun i ->
        let j1 = selected ~value t.gin1.(i) "In1" in
        let j2 = selected ~value t.gin2.(i) "In2" in
        { Circuit.in1 = t.rop_sources.(i).(j1); in2 = t.rop_sources.(i).(j2) })
  in
  let outputs =
    Array.init
      (Array.length t.gout)
      (fun o ->
        let j = selected ~value t.gout.(o) "output" in
        t.out_sources.(j))
  in
  Circuit.make ~arity:t.n ~rop_kind:cfg.rop_kind ~legs ~rops ~outputs ()

let decode t ~value =
  decode_prefix t ~value ~n_legs:t.cfg.n_legs
    ~steps_per_leg:t.cfg.steps_per_leg ~n_rops:t.cfg.n_rops

let size cfg spec =
  let b = Builder.create () in
  let (_ : t) = build b cfg spec in
  (Builder.num_vars b, Builder.num_clauses b)
