module Spec = Mm_boolfun.Spec
module Solver = Mm_sat.Solver
module Builder = Mm_cnf.Builder

type verdict = Ladder.verdict = Sat of Circuit.t | Unsat | Timeout

type attempt = Ladder.attempt = {
  n_legs : int;
  steps_per_leg : int;
  n_rops : int;
  verdict : verdict;
  vars : int;
  clauses : int;
  time_s : float;
  solver_stats : Solver.stats;
}

let default_legs ?(adder = false) spec ~n_rops =
  let base = n_rops + Spec.output_count spec in
  max 1 (if adder then base - 1 else base)

let solve_instance ?timeout (cfg : Encode.config) spec =
  let solver = Solver.create () in
  let builder = Builder.create ~solver () in
  let t0 = Unix.gettimeofday () in
  let layout = Encode.build builder cfg spec in
  let result = Solver.solve ?timeout solver in
  let time_s = Unix.gettimeofday () -. t0 in
  let verdict =
    match result with
    | Solver.Sat ->
      let circuit = Encode.decode layout ~value:(Solver.value_var solver) in
      (match Circuit.realizes circuit spec with
       | Ok () -> Sat circuit
       | Error row ->
         failwith
           (Printf.sprintf
              "Synth.solve_instance: decoded circuit wrong on row %d (encoder bug)"
              row))
    | Solver.Unsat -> Unsat
    | Solver.Unknown -> Timeout
  in
  {
    n_legs = cfg.Encode.n_legs;
    steps_per_leg = cfg.Encode.steps_per_leg;
    n_rops = cfg.Encode.n_rops;
    verdict;
    vars = Builder.num_vars builder;
    clauses = Builder.num_clauses builder;
    time_s;
    solver_stats = Solver.stats solver;
  }

type report = {
  best : (Circuit.t * attempt) option;
  attempts : attempt list;
  rops_proven_minimal : bool;
  steps_proven_minimal : bool;
}

let pp_attempt ppf a =
  let verdict =
    match a.verdict with
    | Sat _ -> "SAT"
    | Unsat -> "UNSAT"
    | Timeout -> "timeout"
  in
  Format.fprintf ppf "N_R=%d N_L=%d N_VS=%d -> %-7s (%d vars, %d clauses, %.2fs)"
    a.n_rops a.n_legs a.steps_per_leg verdict a.vars a.clauses a.time_s

(* One budget point: an answer [lookup] already holds, else the point on
   the shared ladder ([incremental]) or on a fresh monolithic solver, and
   the fresh answer goes to [store]. *)
let solve_point ~timeout ~incremental ?lookup ?store ladder cfg spec =
  match Option.bind lookup (fun f -> f cfg) with
  | Some a -> a
  | None ->
    let a =
      if incremental then
        Ladder.solve_point ~timeout (ladder ()) ~n_legs:cfg.Encode.n_legs
          ~steps:cfg.Encode.steps_per_leg ~n_rops:cfg.Encode.n_rops
      else solve_instance ~timeout cfg spec
    in
    Option.iter (fun g -> g cfg a) store;
    a

(* The paper's outer loop. Phase 1 fixes N_VS = max_steps and grows N_R from
   0 until SAT; every UNSAT on the way is an optimality certificate for that
   N_R. Phase 2 keeps the minimal N_R and grows N_VS from 1 until SAT.

   With [incremental] (the default) both phases run as assumption-restricted
   points of one max-budget {!Ladder} encoding on a single solver; the
   monolithic fresh-solver-per-point path is retained as the
   differential-testing oracle. *)
let minimize ?(timeout_per_call = 60.) ?max_rops ?(max_steps = 0) ?legs_of
    ?(rop_kind = Rop.Nor) ?(taps = Encode.Any_vop) ?(symmetry_breaking = true)
    ?(incremental = true) ?lookup ?store spec =
  let max_steps =
    if max_steps > 0 then max_steps else Spec.arity spec + 2
  in
  let max_rops =
    match max_rops with Some m -> m | None -> Baseline.nor_count spec
  in
  let legs_of =
    match legs_of with
    | Some f -> f
    | None -> fun n_rops -> default_legs spec ~n_rops
  in
  let make_ladder enc_rops =
    let max_legs = ref 0 in
    for r = 0 to enc_rops do
      max_legs := max !max_legs (legs_of r)
    done;
    Ladder.create ~rop_kind ~taps ~symmetry_breaking ~max_legs:!max_legs
      ~max_steps ~max_rops:enc_rops spec
  in
  (* The shared encoding is sized for the budget points actually visited,
     not the worst case: an encoding at [max_rops] would tax every
     propagation of every point with clauses for budgets the sweep never
     reaches. Start near the bottom of the sweep and rebuild exactly as far
     as the requested point when it exceeds the current caps: a rebuild
     forfeits the learnt clauses accumulated so far either way (they are
     forfeited at the same moment under any growth rule — the rebuild
     happens when the out-of-range point is first requested), so
     over-shooting the new cap buys no extra reuse and only re-introduces
     the oversized-encoding tax for the remaining points. *)
  let ladder = ref None in
  let ladder_for ~n_rops =
    match !ladder with
    | Some (enc, l) when n_rops <= enc -> l
    | _ ->
      let enc = min max_rops (max 2 n_rops) in
      let l = make_ladder enc in
      ladder := Some (enc, l);
      l
  in
  let attempts = ref [] in
  (* Dimensions answered once in this call are never re-solved: a custom
     [legs_of] can map different N_R to the same (N_L, N_VS, N_R) request,
     and an UNSAT certificate for those dimensions stays valid. *)
  let memo : (int * int * int, attempt) Hashtbl.t = Hashtbl.create 8 in
  let run ~n_rops ~steps =
    let n_legs = legs_of n_rops in
    match Hashtbl.find_opt memo (n_legs, steps, n_rops) with
    | Some a -> a
    | None ->
      let cfg =
        Encode.config ~rop_kind ~taps ~symmetry_breaking ~n_legs
          ~steps_per_leg:steps ~n_rops ()
      in
      let a =
        solve_point ~timeout:timeout_per_call ~incremental ?lookup ?store
          (fun () -> ladder_for ~n_rops) cfg spec
      in
      Hashtbl.replace memo (n_legs, steps, n_rops) a;
      attempts := a :: !attempts;
      a
  in
  (* Phase 1: minimal N_R at generous N_VS *)
  let rec find_rops n_rops all_proven =
    if n_rops > max_rops then (None, all_proven)
    else
      let a = run ~n_rops ~steps:max_steps in
      match a.verdict with
      | Sat c -> (Some (n_rops, c, a), all_proven)
      | Unsat -> find_rops (n_rops + 1) all_proven
      | Timeout -> find_rops (n_rops + 1) false
  in
  match find_rops 0 true with
  | None, proven ->
    { best = None; attempts = List.rev !attempts; rops_proven_minimal = proven;
      steps_proven_minimal = false }
  | Some (n_rops, circuit0, attempt0), rops_proven ->
    (* Phase 2: minimal N_VS for this N_R *)
    let rec find_steps steps all_proven =
      if steps >= max_steps then (None, all_proven)
      else
        let a = run ~n_rops ~steps in
        match a.verdict with
        | Sat c -> (Some (c, a), all_proven)
        | Unsat -> find_steps (steps + 1) all_proven
        | Timeout -> find_steps (steps + 1) false
    in
    let best, steps_proven =
      match find_steps 1 true with
      | Some (c, a), proven -> (Some (c, a), proven)
      | None, proven -> (Some (circuit0, attempt0), proven)
    in
    {
      best;
      attempts = List.rev !attempts;
      rops_proven_minimal = rops_proven;
      steps_proven_minimal = steps_proven;
    }

let minimize_r_only ?(timeout_per_call = 60.) ?max_rops ?(rop_kind = Rop.Nor)
    ?(symmetry_breaking = true) ?(incremental = true) ?lookup ?store spec =
  let baseline = Baseline.nor_network spec in
  let max_rops =
    match max_rops with Some m -> m | None -> Circuit.n_rops baseline
  in
  let ladder =
    lazy
      (Ladder.create ~rop_kind ~symmetry_breaking ~max_legs:0 ~max_steps:0
         ~max_rops spec)
  in
  let attempts = ref [] in
  let run n_rops =
    let cfg =
      Encode.config ~rop_kind ~symmetry_breaking ~n_legs:0 ~steps_per_leg:0
        ~n_rops ()
    in
    let a =
      solve_point ~timeout:timeout_per_call ~incremental ?lookup ?store
        (fun () -> Lazy.force ladder) cfg spec
    in
    attempts := a :: !attempts;
    a
  in
  let rec find n_rops all_proven =
    if n_rops > max_rops then (None, all_proven)
    else
      let a = run n_rops in
      match a.verdict with
      | Sat c -> (Some (c, a), all_proven)
      | Unsat -> find (n_rops + 1) all_proven
      | Timeout -> find (n_rops + 1) false
  in
  (* N_R = 0 is legitimate: an output may be a plain literal *)
  let best, proven = find 0 true in
  {
    best;
    attempts = List.rev !attempts;
    rops_proven_minimal = proven;
    steps_proven_minimal = true;
  }
