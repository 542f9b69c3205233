module Spec = Mm_boolfun.Spec
module Solver = Mm_sat.Solver
module Lit = Mm_sat.Lit
module Builder = Mm_cnf.Builder

type verdict = Sat of Circuit.t | Unsat | Timeout

type attempt = {
  n_legs : int;
  steps_per_leg : int;
  n_rops : int;
  verdict : verdict;
  vars : int;
  clauses : int;
  time_s : float;
  solver_stats : Solver.stats;
}

type family = Leg of int | Step of int | Rop of int

type t = {
  spec : Spec.t;
  solver : Solver.t;
  builder : Builder.t;
  layout : Encode.t;
  act : Encode.activation;
  max_legs : int;
  max_steps : int;
  max_rops : int;
  classify : (int, family) Hashtbl.t;
  (* failed-assumption sets of past UNSAT answers: any later budget point
     whose activation assignment satisfies one of them is UNSAT without
     touching the solver. [[]] (an empty core) means the formula is UNSAT
     under every assignment. *)
  mutable certs : Lit.t list list;
  (* phases saved while refuting one budget point keep steering the search
     into the refuted region at the next one; they are reset before the
     point after an UNSAT/timeout answer. Phases from a SAT answer are a
     useful warm start and are kept. *)
  mutable stale_phases : bool;
}

let create ?(rop_kind = Rop.Nor) ?(taps = Encode.Final_only)
    ?(symmetry_breaking = false) ?(allow_literal_rop_inputs = true) ~max_legs
    ~max_steps ~max_rops spec =
  let cfg =
    Encode.config ~rop_kind ~taps ~symmetry_breaking ~allow_literal_rop_inputs
      ~n_legs:max_legs ~steps_per_leg:max_steps ~n_rops:max_rops ()
  in
  let solver = Solver.create () in
  let builder = Builder.create ~solver () in
  let layout, act = Encode.build_with_activation builder cfg spec in
  let classify = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.replace classify v (Leg i)) act.Encode.leg_act;
  Array.iteri (fun i v -> Hashtbl.replace classify v (Step i)) act.Encode.step_act;
  Array.iteri (fun i v -> Hashtbl.replace classify v (Rop i)) act.Encode.rop_act;
  {
    spec;
    solver;
    builder;
    layout;
    act;
    max_legs = cfg.Encode.n_legs;
    max_steps = cfg.Encode.steps_per_leg;
    max_rops = cfg.Encode.n_rops;
    classify;
    certs = [];
    stale_phases = false;
  }

let size t = (Builder.num_vars t.builder, Builder.num_clauses t.builder)
let cumulative_stats t = Solver.stats t.solver
let certificates t = List.length t.certs

(* The activation assignment of a budget point: variable [k] of a family
   vector is true iff [k] is below the point's dimension. *)
let lit_holds t ~n_legs ~steps ~n_rops l =
  match Hashtbl.find_opt t.classify (Lit.var l) with
  | None -> false
  | Some (Leg i) -> i < n_legs = not (Lit.sign l)
  | Some (Step s) -> s < steps = not (Lit.sign l)
  | Some (Rop r) -> r < n_rops = not (Lit.sign l)

(* Boundary assumptions per family; the chain clauses propagate the rest of
   the vector in one pass. *)
let assumptions t ~n_legs ~steps ~n_rops =
  let family acts m =
    let upper = if m < Array.length acts then [ Lit.negate (Lit.pos acts.(m)) ] else [] in
    let lower = if m > 0 then [ Lit.pos acts.(m - 1) ] else [] in
    lower @ upper
  in
  family t.act.Encode.leg_act n_legs
  @ family t.act.Encode.step_act steps
  @ family t.act.Encode.rop_act n_rops

let zero_stats =
  {
    Solver.conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    imported_clauses = 0;
    learnt_clauses = 0;
    peak_learnts = 0;
    props_per_s = 0.;
  }

let delta_stats (a : Solver.stats) (b : Solver.stats) =
  {
    Solver.conflicts = b.conflicts - a.conflicts;
    decisions = b.decisions - a.decisions;
    propagations = b.propagations - a.propagations;
    restarts = b.restarts - a.restarts;
    imported_clauses = b.imported_clauses - a.imported_clauses;
    (* DB sizes are cumulative, not per-call *)
    learnt_clauses = b.learnt_clauses;
    peak_learnts = b.peak_learnts;
    props_per_s = b.props_per_s;
  }

let solve_point ?timeout t ~n_legs ~steps ~n_rops =
  (* same normalization as [Encode.config] before range-checking, so a
     request like (0 legs, k steps) is valid against a 0-leg encoding *)
  let n_legs, steps = if n_legs = 0 || steps = 0 then (0, 0) else (n_legs, steps) in
  if n_legs < 0 || n_legs > t.max_legs || steps < 0 || steps > t.max_steps
     || n_rops < 0 || n_rops > t.max_rops
  then invalid_arg "Ladder.solve_point: dimensions exceed the encoding";
  let t0 = Unix.gettimeofday () in
  let vars, clauses = size t in
  let finish verdict solver_stats =
    {
      n_legs;
      steps_per_leg = steps;
      n_rops;
      verdict;
      vars;
      clauses;
      time_s = Unix.gettimeofday () -. t0;
      solver_stats;
    }
  in
  let holds = lit_holds t ~n_legs ~steps ~n_rops in
  if List.exists (fun core -> List.for_all holds core) t.certs then
    (* a recorded optimality certificate already covers this point *)
    finish Unsat zero_stats
  else begin
    if t.stale_phases then Solver.reset_phases t.solver;
    let before = Solver.stats t.solver in
    let result =
      Solver.solve
        ~assumptions:(assumptions t ~n_legs ~steps ~n_rops)
        ?timeout t.solver
    in
    t.stale_phases <- result <> Solver.Sat;
    let stats = delta_stats before (Solver.stats t.solver) in
    match result with
    | Solver.Sat ->
      let circuit =
        Encode.decode_prefix t.layout
          ~value:(Solver.value_var t.solver)
          ~n_legs ~steps_per_leg:steps ~n_rops
      in
      (match Circuit.realizes circuit t.spec with
       | Ok () -> finish (Sat circuit) stats
       | Error row ->
         failwith
           (Printf.sprintf
              "Ladder.solve_point: decoded circuit wrong on row %d (encoder \
               bug)"
              row))
    | Solver.Unsat ->
      t.certs <- Solver.failed_assumptions t.solver :: t.certs;
      finish Unsat stats
    | Solver.Unknown -> finish Timeout stats
  end
