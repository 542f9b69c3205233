module Solver = Mm_sat.Solver
module Lit = Mm_sat.Lit
module Dimacs = Mm_sat.Dimacs

let qtest = QCheck_alcotest.to_alcotest

let result = Alcotest.testable
    (fun ppf -> function
       | Solver.Sat -> Format.fprintf ppf "Sat"
       | Solver.Unsat -> Format.fprintf ppf "Unsat"
       | Solver.Unknown -> Format.fprintf ppf "Unknown")
    ( = )

let fresh n =
  let s = Solver.create () in
  ignore (Solver.new_vars s n);
  s

let test_lit () =
  let l = Lit.make 4 true in
  Alcotest.(check int) "var" 4 (Lit.var l);
  Alcotest.(check bool) "sign" true (Lit.sign l);
  Alcotest.(check int) "negate var" 4 (Lit.var (Lit.negate l));
  Alcotest.(check bool) "negate sign" false (Lit.sign (Lit.negate l));
  Alcotest.(check int) "dimacs" (-5) (Lit.to_dimacs l);
  Alcotest.(check int) "roundtrip" l (Lit.of_dimacs (Lit.to_dimacs l))

let test_trivial_sat () =
  let s = fresh 2 in
  Solver.add_clause s [ Lit.pos 0; Lit.pos 1 ];
  Alcotest.check result "sat" Solver.Sat (Solver.solve s);
  Alcotest.(check bool) "clause satisfied" true
    (Solver.value s (Lit.pos 0) || Solver.value s (Lit.pos 1))

let test_unit_conflict () =
  let s = fresh 1 in
  Solver.add_clause s [ Lit.pos 0 ];
  Solver.add_clause s [ Lit.neg_of 0 ];
  Alcotest.(check bool) "ok false" false (Solver.ok s);
  Alcotest.check result "unsat" Solver.Unsat (Solver.solve s)

let test_empty_clause () =
  let s = fresh 1 in
  Solver.add_clause s [];
  Alcotest.check result "unsat" Solver.Unsat (Solver.solve s)

let test_tautology_dropped () =
  let s = fresh 1 in
  Solver.add_clause s [ Lit.pos 0; Lit.neg_of 0 ];
  Alcotest.(check int) "no clause stored" 0 (Solver.nclauses s);
  Alcotest.check result "sat" Solver.Sat (Solver.solve s)

let test_duplicate_literals () =
  let s = fresh 2 in
  Solver.add_clause s [ Lit.pos 0; Lit.pos 0; Lit.pos 0 ];
  Alcotest.check result "sat" Solver.Sat (Solver.solve s);
  Alcotest.(check bool) "forced" true (Solver.value s (Lit.pos 0))

let test_implication_chain () =
  (* x0 -> x1 -> ... -> x9, assert x0, all must be true *)
  let s = fresh 10 in
  for i = 0 to 8 do
    Solver.add_clause s [ Lit.neg_of i; Lit.pos (i + 1) ]
  done;
  Solver.add_clause s [ Lit.pos 0 ];
  Alcotest.check result "sat" Solver.Sat (Solver.solve s);
  for i = 0 to 9 do
    Alcotest.(check bool) (Printf.sprintf "x%d" i) true (Solver.value_var s i)
  done

let php ~pigeons ~holes () =
  let s = Solver.create () in
  let var p h = p * holes + h in
  ignore (Solver.new_vars s (pigeons * holes));
  for p = 0 to pigeons - 1 do
    Solver.add_clause s (List.init holes (fun h -> Lit.pos (var p h)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Solver.add_clause s [ Lit.neg_of (var p1 h); Lit.neg_of (var p2 h) ]
      done
    done
  done;
  s

let test_php_unsat () =
  Alcotest.check result "php(5,4)" Solver.Unsat (Solver.solve (php ~pigeons:5 ~holes:4 ()));
  Alcotest.check result "php(7,6)" Solver.Unsat (Solver.solve (php ~pigeons:7 ~holes:6 ()))

let test_php_sat () =
  let s = php ~pigeons:5 ~holes:5 () in
  Alcotest.check result "php(5,5)" Solver.Sat (Solver.solve s)

let test_budget_unknown () =
  let s = php ~pigeons:9 ~holes:8 () in
  Alcotest.check result "conflict budget" Solver.Unknown
    (Solver.solve ~max_conflicts:10 s);
  (* a second call with full budget still completes correctly *)
  Alcotest.check result "then unsat" Solver.Unsat (Solver.solve s)

let test_assumptions () =
  let s = fresh 3 in
  Solver.add_clause s [ Lit.pos 0; Lit.pos 1 ];
  Solver.add_clause s [ Lit.neg_of 1; Lit.pos 2 ];
  Alcotest.check result "assume ~x0" Solver.Sat
    (Solver.solve ~assumptions:[ Lit.neg_of 0 ] s);
  Alcotest.(check bool) "x1 forced" true (Solver.value_var s 1);
  Alcotest.(check bool) "x2 forced" true (Solver.value_var s 2);
  Alcotest.check result "conflicting assumptions" Solver.Unsat
    (Solver.solve ~assumptions:[ Lit.neg_of 0; Lit.neg_of 1 ] s);
  (* solver is reusable after assumption-unsat *)
  Alcotest.check result "no assumptions" Solver.Sat (Solver.solve s)

let test_incremental () =
  let s = fresh 2 in
  Solver.add_clause s [ Lit.pos 0; Lit.pos 1 ];
  Alcotest.check result "sat 1" Solver.Sat (Solver.solve s);
  Solver.add_clause s [ Lit.neg_of 0 ];
  Alcotest.check result "sat 2" Solver.Sat (Solver.solve s);
  Alcotest.(check bool) "x1" true (Solver.value_var s 1);
  Solver.add_clause s [ Lit.neg_of 1 ];
  Alcotest.check result "unsat" Solver.Unsat (Solver.solve s)

let test_incremental_with_assumptions () =
  (* interleave clause addition with assumption solves on one solver *)
  let s = fresh 3 in
  Solver.add_clause s [ Lit.pos 0; Lit.pos 1 ];
  Alcotest.check result "sat assuming ~x0" Solver.Sat
    (Solver.solve ~assumptions:[ Lit.neg_of 0 ] s);
  Solver.add_clause s [ Lit.neg_of 1; Lit.pos 2 ];
  Alcotest.check result "sat assuming ~x0 ~x2" Solver.Unsat
    (Solver.solve ~assumptions:[ Lit.neg_of 0; Lit.neg_of 2 ] s);
  Solver.add_clause s [ Lit.neg_of 2 ];
  Alcotest.check result "now x0 is forced" Solver.Sat (Solver.solve s);
  Alcotest.(check bool) "x0" true (Solver.value_var s 0);
  Alcotest.check result "assuming ~x0 is refuted" Solver.Unsat
    (Solver.solve ~assumptions:[ Lit.neg_of 0 ] s)

let test_assumption_polarity_flips () =
  (* x0 -> x2, x1 -> x3, never both x2 and x3; flip assumption polarities
     back and forth — clauses learned under one polarity must not
     contaminate answers under another *)
  let s = fresh 4 in
  Solver.add_clause s [ Lit.neg_of 0; Lit.pos 2 ];
  Solver.add_clause s [ Lit.neg_of 1; Lit.pos 3 ];
  Solver.add_clause s [ Lit.neg_of 2; Lit.neg_of 3 ];
  Alcotest.check result "both on" Solver.Unsat
    (Solver.solve ~assumptions:[ Lit.pos 0; Lit.pos 1 ] s);
  Alcotest.check result "x0 only" Solver.Sat
    (Solver.solve ~assumptions:[ Lit.pos 0; Lit.neg_of 1 ] s);
  Alcotest.(check bool) "x2 implied" true (Solver.value_var s 2);
  Alcotest.check result "x1 only" Solver.Sat
    (Solver.solve ~assumptions:[ Lit.neg_of 0; Lit.pos 1 ] s);
  Alcotest.(check bool) "x3 implied" true (Solver.value_var s 3);
  Alcotest.check result "both on again" Solver.Unsat
    (Solver.solve ~assumptions:[ Lit.pos 0; Lit.pos 1 ] s);
  Alcotest.check result "both off" Solver.Sat
    (Solver.solve ~assumptions:[ Lit.neg_of 0; Lit.neg_of 1 ] s);
  Alcotest.check result "unconstrained" Solver.Sat (Solver.solve s)

let test_failed_assumptions () =
  let s = fresh 4 in
  Solver.add_clause s [ Lit.neg_of 0; Lit.pos 1 ];
  Solver.add_clause s [ Lit.neg_of 1; Lit.neg_of 2 ];
  (* {x0, x2} is inconsistent with the clauses; x3 is irrelevant *)
  Alcotest.check result "unsat under assumptions" Solver.Unsat
    (Solver.solve ~assumptions:[ Lit.pos 0; Lit.pos 2; Lit.pos 3 ] s);
  let failed = Solver.failed_assumptions s in
  Alcotest.(check bool) "core is nonempty" true (failed <> []);
  List.iter
    (fun l ->
      Alcotest.(check bool) "core within assumptions" true
        (List.mem l [ Lit.pos 0; Lit.pos 2; Lit.pos 3 ]))
    failed;
  Alcotest.(check bool) "irrelevant x3 not blamed" true
    (not (List.mem (Lit.pos 3) failed));
  (* the extracted core alone still refutes the formula *)
  Alcotest.check result "core refutes" Solver.Unsat
    (Solver.solve ~assumptions:failed s);
  (* and the formula is satisfiable without the assumptions *)
  Alcotest.check result "sat without" Solver.Sat (Solver.solve s)

let test_failed_assumptions_root_unsat () =
  (* a formula unsat on its own yields the empty core: no assumption is to
     blame, the refutation holds under every assignment *)
  let s = fresh 2 in
  Solver.add_clause s [ Lit.pos 0 ];
  Solver.add_clause s [ Lit.neg_of 0 ];
  Alcotest.check result "unsat" Solver.Unsat
    (Solver.solve ~assumptions:[ Lit.pos 1 ] s);
  Alcotest.(check (list int)) "empty core" [] (Solver.failed_assumptions s)

let test_value_without_model () =
  let s = fresh 1 in
  Solver.add_clause s [ Lit.pos 0 ];
  Alcotest.check_raises "no model yet" (Invalid_argument "Solver.value: no model")
    (fun () -> ignore (Solver.value s (Lit.pos 0)))

(* random CNF vs brute force *)
let brute_force_sat num_vars clauses =
  let satisfies m clause =
    List.exists
      (fun d ->
        let v = abs d - 1 in
        let value = (m lsr v) land 1 = 1 in
        if d > 0 then value else not value)
      clause
  in
  let rec go m =
    if m >= 1 lsl num_vars then false
    else if List.for_all (satisfies m) clauses then true
    else go (m + 1)
  in
  go 0

let gen_cnf =
  QCheck.Gen.(
    let* num_vars = int_range 2 8 in
    let* num_clauses = int_range 1 30 in
    let gen_clause =
      let* width = int_range 1 3 in
      list_repeat width
        (let* v = int_range 1 num_vars in
         let* s = bool in
         return (if s then v else -v))
    in
    let* clauses = list_repeat num_clauses gen_clause in
    return (num_vars, clauses))

let prop_random_cnf =
  QCheck.Test.make ~name:"CDCL agrees with brute force" ~count:300
    (QCheck.make
       ~print:(fun (n, cs) ->
         Printf.sprintf "n=%d %s" n
           (String.concat " "
              (List.map
                 (fun c -> String.concat "," (List.map string_of_int c))
                 cs)))
       gen_cnf)
    (fun (num_vars, clauses) ->
      let s = fresh num_vars in
      List.iter (fun c -> Solver.add_clause s (List.map Lit.of_dimacs c)) clauses;
      match Solver.solve s with
      | Solver.Sat ->
        (* the model must satisfy every clause *)
        brute_force_sat num_vars clauses
        && List.for_all
             (List.exists (fun d -> Solver.value s (Lit.of_dimacs d)))
             clauses
      | Solver.Unsat -> not (brute_force_sat num_vars clauses)
      | Solver.Unknown -> false)

let test_stats () =
  let s = php ~pigeons:5 ~holes:4 () in
  ignore (Solver.solve s);
  let st = Solver.stats s in
  Alcotest.(check bool) "conflicts happened" true (st.Solver.conflicts > 0);
  Alcotest.(check bool) "propagations happened" true (st.Solver.propagations > 0);
  Alcotest.(check bool) "learnt DB peak tracked" true
    (st.Solver.peak_learnts > 0);
  Alcotest.(check bool) "propagation throughput tracked" true
    (st.Solver.props_per_s >= 0.)

(* --- search identity ---

   The solver's storage layout must never change its search: the same
   clause stream and config must replay the same decisions, conflicts,
   propagations, learnt DB and failed-assumption cores. The pinned values
   below were recorded with the boxed-clause solver that preceded the flat
   clause arena; any change to them is a change of search, not of speed. *)

(* A 63-bit LCG, so the seeded instances do not depend on Stdlib.Random. *)
let lcg seed =
  let s = ref seed in
  fun bound ->
    s := ((!s * 2862933555777941757) + 3037000493) land max_int;
    (!s lsr 20) mod bound

(* A random DIMACS literal over [vars] variables. *)
let random_literal rand vars =
  let v = rand vars in
  if rand 2 = 1 then v + 1 else -(v + 1)

(* A random 3-clause satisfied by the assignment [hidden]. *)
let rec planted_clause rand hidden =
  let c = List.init 3 (fun _ -> random_literal rand (Array.length hidden)) in
  if List.exists (fun d -> hidden.(abs d - 1) = (d > 0)) c then c
  else planted_clause rand hidden

(* [clauses] planted 3-clauses, the hidden assignment drawn from the same
   stream. *)
let planted_3sat ~seed ~vars ~clauses =
  let rand = lcg seed in
  let hidden = Array.init vars (fun _ -> rand 2 = 1) in
  List.init clauses (fun _ -> planted_clause rand hidden)

let load s clauses =
  List.iter (fun c -> Solver.add_clause s (List.map Lit.of_dimacs c)) clauses

let planted = planted_3sat ~seed:2024 ~vars:250 ~clauses:1050

let planted_solver () =
  let s = Solver.create () in
  ignore (Solver.new_vars s 250);
  load s planted;
  s

let satisfies_all s clauses =
  List.for_all (List.exists (fun d -> Solver.value s (Lit.of_dimacs d))) clauses

(* A solve stopped by [~max_conflicts] answers Unknown and leaves the
   solver usable: an unbudgeted resume and a third solve both reach the
   reference verdict, and a resumed model satisfies every clause. Both
   instances need well over 50 conflicts, so every budget in the sweep must
   interrupt. *)
let test_stop_leaves_solver_reusable () =
  let sweep name reference make ~clauses =
    List.iter
      (fun k ->
        let name = Printf.sprintf "%s, max_conflicts %d" name k in
        let s = make () in
        Alcotest.check result (name ^ ": interrupted") Solver.Unknown
          (Solver.solve ~max_conflicts:k s);
        Alcotest.check result (name ^ ": resumed") reference (Solver.solve s);
        if reference = Solver.Sat then
          Alcotest.(check bool) (name ^ ": model satisfies every clause") true
            (satisfies_all s clauses);
        Alcotest.check result (name ^ ": solved again") reference
          (Solver.solve s))
      [ 0; 1; 2; 3; 5; 8; 50 ]
  in
  sweep "php(7,6)" Solver.Unsat (php ~pigeons:7 ~holes:6) ~clauses:[];
  sweep "planted 3-SAT" Solver.Sat planted_solver ~clauses:planted

(* Every solve call starts its Luby sequence afresh, and the first segment's
   conflict budget is 100, so [~max_conflicts:100] stops each call exactly
   where its first restart would fall. Chaining such calls must still reach
   the reference verdict: every stopped call answers Unknown after at least
   its 100 conflicts, the stop takes the restart's place (the restart count
   stays 0), and the final model satisfies every clause. *)
let test_stop_at_restart_boundary () =
  let chain name reference s ~clauses =
    let rec go calls =
      let before = (Solver.stats s).Solver.conflicts in
      match Solver.solve ~max_conflicts:100 s with
      | Solver.Unknown ->
        Alcotest.(check bool)
          (Printf.sprintf "%s, call %d: full budget spent" name calls)
          true
          ((Solver.stats s).Solver.conflicts - before >= 100);
        if calls >= 1000 then Alcotest.failf "%s: no verdict in %d calls" name calls;
        go (calls + 1)
      | r -> (r, calls)
    in
    let r, calls = go 1 in
    Alcotest.check result (name ^ ": verdict") reference r;
    Alcotest.(check bool) (name ^ ": stopped at least once") true (calls > 1);
    Alcotest.(check int) (name ^ ": no restart") 0 (Solver.stats s).Solver.restarts;
    if reference = Solver.Sat then
      Alcotest.(check bool) (name ^ ": model satisfies every clause") true
        (satisfies_all s clauses);
    Alcotest.check result (name ^ ": solved again") reference (Solver.solve s)
  in
  chain "php(8,7)" Solver.Unsat (php ~pigeons:8 ~holes:7 ()) ~clauses:[];
  chain "planted 3-SAT" Solver.Sat (planted_solver ()) ~clauses:planted

let search_counts s =
  let st = Solver.stats s in
  [ st.Solver.conflicts; st.decisions; st.propagations; st.peak_learnts ]

let result_code = function Solver.Sat -> 1 | Solver.Unsat -> 0 | Solver.Unknown -> -1

let pin name expected actual =
  Alcotest.(check (list int)) name expected actual

(* php(7,6) stops short of the first learnt-DB reduction (657 learnts
   against a floor of 1000); php(8,7) runs two [reduce_db] rounds that drop
   1785 learnts, which also compacts the clause arena. *)
let test_identity_php () =
  let s = php ~pigeons:7 ~holes:6 () in
  Alcotest.check result "php(7,6)" Solver.Unsat (Solver.solve s);
  pin "php(7,6) search" [ 662; 798; 8171; 657 ] (search_counts s);
  let s = php ~pigeons:8 ~holes:7 () in
  Alcotest.check result "php(8,7)" Solver.Unsat (Solver.solve s);
  pin "php(8,7) search" [ 3813; 4662; 51517; 2024 ] (search_counts s)

(* Verdict codes (1 Sat, 0 Unsat) of the sweep, each refutation followed by
   -999 and its failed-assumption core in DIMACS form. *)
let planted_trace =
  [
    0; -999; -183; 81; 113; 158; 32; -171; 115; -208; 168; 17; -21; -223; 174; -160;
    0; -999; 8; -34; 1; 182; -242; 179; 37; -134; 192; 70; 152; 221; 28;
    0; -999; -205; -233; 186; -49; 227; 108; 201; 190; -109; 128; -38; 204; 154; 146;
    0; -999; 23; 233; 30; -53; 191; -127; -132; 55; -232; -101; -11; 131; 105; -20;
    1;
    0; -999; 246; 99; -6; -115; 62; 102; -113; 221; -13; -76; -174; -95; 171;
    0; -999; -88; -228; 76; -183; 222; 226; 38; -146; 233; -227; -188; -201; 125; -152;
    0; -999; 54; -54;
    0; -999; 63; -63;
    0; -999; 54; 20; 37; -152; -2; -135; -43; 41; -172; -124; -205; 17; 137; -76;
    0; -999; 13; -182; 43; -146; 93; -138; 160; 79; 156; 126; 80; 81; -220;
    0; -999; 232; -181; -242; 247; 161; -238; -202; -152; -99; -219; 94; 120; 155; 107
  ]

(* One solve without assumptions, then a sweep of seeded assumption sets
   (some refuted, with cores) on the same solver. *)
let test_identity_planted () =
  let vars = 250 in
  let s = Solver.create () in
  ignore (Solver.new_vars s vars);
  load s (planted_3sat ~seed:2024 ~vars ~clauses:1050);
  Alcotest.check result "planted" Solver.Sat (Solver.solve s);
  pin "planted: first solve" [ 2034; 2721; 96457; 1583 ] (search_counts s);
  let rand = lcg 77 in
  let round _ =
    let assumption _ =
      let v = rand vars in
      Lit.make v (rand 2 = 1)
    in
    let assumptions = List.init 14 assumption in
    match Solver.solve ~assumptions s with
    | Solver.Unsat -> 0 :: -999 :: List.map Lit.to_dimacs (Solver.failed_assumptions s)
    | r -> [ result_code r ]
  in
  pin "planted: verdicts and cores" planted_trace (List.concat_map round (List.init 12 Fun.id));
  pin "planted: after sweep" [ 9683; 12107; 449717; 1854 ] (search_counts s)

(* Per point: legs, steps, R-ops, verdict (1 Sat, 0 Unsat), conflicts,
   decisions, propagations. *)
let ladder_trace =
  [
    1; 3; 0; 0; 102; 326; 6427;
    2; 3; 1; 0; 1870; 3179; 139701;
    3; 3; 2; 1; 1157; 2654; 92706;
    3; 1; 2; 0; 189; 411; 12520;
    3; 2; 2; 0; 3133; 4884; 263748
  ]

(* The incremental ladder of Synth.minimize: every point's verdict and
   search counts. Failed-assumption cores decide which later points are
   refuted by a recorded certificate (zero counts) instead of the solver. *)
let test_identity_ladder () =
  let spec =
    Mm_boolfun.Spec.make ~name:"0069" [| Mm_boolfun.Truth_table.of_int 4 0x0069 |]
  in
  let r =
    Mm_core.Synth.minimize ~timeout_per_call:60. ~max_rops:4 ~max_steps:3 spec
  in
  let row (a : Mm_core.Synth.attempt) =
    let st = a.Mm_core.Synth.solver_stats in
    [
      a.n_legs;
      a.steps_per_leg;
      a.n_rops;
      (match a.verdict with Mm_core.Synth.Sat _ -> 1 | Unsat -> 0 | Timeout -> -1);
      st.Solver.conflicts;
      st.decisions;
      st.propagations;
    ]
  in
  pin "ladder points" ladder_trace (List.concat_map row r.Mm_core.Synth.attempts)

(* --- storage stress ---

   Seeded incremental sessions over planted 3-SAT: clauses are added
   between solve calls and every other call flips the polarity of the
   previous assumption set. The 250-variable sessions run long enough for
   repeated learnt-DB reductions and arena compactions (each runs 8
   reductions and 4 compactions). Every model must satisfy every
   clause and the assumptions, every core must lie within the assumptions,
   and assumptions that agree with the hidden assignment must be
   satisfiable. On the 20-variable sessions Dpll must agree on every
   verdict and refute the clauses plus each core. *)

let stress_session ~seed ~vars ~initial ~rounds ~added ~n_assume ~oracle =
  let rand = lcg seed in
  let hidden = Array.init vars (fun _ -> rand 2 = 1) in
  let s = Solver.create () in
  ignore (Solver.new_vars s vars);
  let clauses = ref [] in
  let add () =
    let c = planted_clause rand hidden in
    clauses := c :: !clauses;
    Solver.add_clause s (List.map Lit.of_dimacs c)
  in
  for _ = 1 to initial do
    add ()
  done;
  let prev = ref [] in
  for round = 1 to rounds do
    let assumptions =
      if round mod 2 = 0 then List.map (fun d -> -d) !prev
      else List.init n_assume (fun _ -> random_literal rand vars)
    in
    prev := assumptions;
    let agrees = List.for_all (fun d -> hidden.(abs d - 1) = (d > 0)) assumptions in
    let name = Printf.sprintf "seed %d round %d" seed round in
    let dpll extra = Mm_sat.Dpll.solve ~num_vars:vars (List.map (fun d -> [ d ]) extra @ !clauses) in
    (match Solver.solve ~assumptions:(List.map Lit.of_dimacs assumptions) s with
     | Solver.Sat ->
       let holds d = Solver.value s (Lit.of_dimacs d) in
       Alcotest.(check bool) (name ^ ": model satisfies clauses") true
         (List.for_all (List.exists holds) !clauses);
       Alcotest.(check bool) (name ^ ": model satisfies assumptions") true
         (List.for_all holds assumptions);
       if oracle then
         Alcotest.(check bool) (name ^ ": Dpll agrees (sat)") true
           (match dpll assumptions with Mm_sat.Dpll.Sat _ -> true | _ -> false)
     | Solver.Unsat ->
       let core = List.map Lit.to_dimacs (Solver.failed_assumptions s) in
       Alcotest.(check bool) (name ^ ": assumptions were satisfiable") false agrees;
       Alcotest.(check bool) (name ^ ": core within assumptions") true
         (List.for_all (fun d -> List.mem d assumptions) core);
       if oracle then begin
         Alcotest.(check bool) (name ^ ": Dpll agrees (unsat)") true
           (dpll assumptions = Mm_sat.Dpll.Unsat);
         Alcotest.(check bool) (name ^ ": Dpll refutes clauses + core") true
           (dpll core = Mm_sat.Dpll.Unsat)
       end
     | Solver.Unknown -> Alcotest.fail (name ^ ": Unknown without a budget"));
    for _ = 1 to added do
      add ()
    done
  done;
  Solver.stats s

(* A lower bound on the [reduce_db] rounds a session ran, from public
   stats alone: every non-root conflict records one learnt clause, at most
   [vars] of them are units, and one round removes at most half (rounded
   up) of a DB that never exceeds [peak_learnts]. *)
let min_reductions (st : Solver.stats) ~vars =
  let removed = st.conflicts - 1 - vars - st.learnt_clauses in
  let per_round = (st.peak_learnts + 1) / 2 in
  if removed <= 0 then 0 else (removed + per_round - 1) / per_round

let test_stress_large () =
  List.iter
    (fun seed ->
      let vars = 250 in
      let st =
        stress_session ~seed ~vars ~initial:1050 ~rounds:60 ~added:4 ~n_assume:16
          ~oracle:false
      in
      Alcotest.(check bool) "several learnt-DB reductions" true
        (min_reductions st ~vars >= 2))
    [ 1; 2 ]

let test_stress_small () =
  List.iter
    (fun seed ->
      ignore
        (stress_session ~seed ~vars:20 ~initial:70 ~rounds:60 ~added:1 ~n_assume:6
           ~oracle:true))
    [ 3; 4; 5; 6 ]

(* --- DIMACS --- *)

let test_dimacs_parse () =
  let input = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  match Dimacs.parse_string input with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok p ->
    Alcotest.(check int) "vars" 3 p.Dimacs.num_vars;
    Alcotest.(check (list (list int))) "clauses" [ [ 1; -2 ]; [ 2; 3 ] ]
      p.Dimacs.clauses

let test_dimacs_roundtrip () =
  let p = { Dimacs.num_vars = 4; clauses = [ [ 1; -3 ]; [ 2; 4; -1 ]; [ -4 ] ] } in
  match Dimacs.parse_string (Dimacs.to_string p) with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok p' ->
    Alcotest.(check int) "vars" p.Dimacs.num_vars p'.Dimacs.num_vars;
    Alcotest.(check (list (list int))) "clauses" p.Dimacs.clauses p'.Dimacs.clauses

let test_dimacs_load () =
  let p = { Dimacs.num_vars = 2; clauses = [ [ 1 ]; [ -1; 2 ] ] } in
  let s = Solver.create () in
  Dimacs.load s p;
  Alcotest.check result "sat" Solver.Sat (Solver.solve s);
  Alcotest.(check bool) "x2" true (Solver.value_var s 1)

let test_dimacs_errors () =
  (match Dimacs.parse_string "p cnf x 2\n1 0\n" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected error");
  match Dimacs.parse_string "1 two 0\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

let () =
  Alcotest.run "sat"
    [
      ("lit", [ Alcotest.test_case "encoding" `Quick test_lit ]);
      ( "solver",
        [
          Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
          Alcotest.test_case "unit conflict" `Quick test_unit_conflict;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "tautology dropped" `Quick test_tautology_dropped;
          Alcotest.test_case "duplicate literals" `Quick test_duplicate_literals;
          Alcotest.test_case "implication chain" `Quick test_implication_chain;
          Alcotest.test_case "pigeonhole unsat" `Slow test_php_unsat;
          Alcotest.test_case "pigeonhole sat" `Quick test_php_sat;
          Alcotest.test_case "budget -> Unknown" `Quick test_budget_unknown;
          Alcotest.test_case "stop leaves solver reusable" `Quick
            test_stop_leaves_solver_reusable;
          Alcotest.test_case "stop at restart boundary" `Quick
            test_stop_at_restart_boundary;
          Alcotest.test_case "assumptions" `Quick test_assumptions;
          Alcotest.test_case "incremental" `Quick test_incremental;
          Alcotest.test_case "incremental with assumptions" `Quick
            test_incremental_with_assumptions;
          Alcotest.test_case "assumption polarity flips" `Quick
            test_assumption_polarity_flips;
          Alcotest.test_case "failed assumptions" `Quick
            test_failed_assumptions;
          Alcotest.test_case "failed assumptions, root unsat" `Quick
            test_failed_assumptions_root_unsat;
          Alcotest.test_case "value without model" `Quick test_value_without_model;
          Alcotest.test_case "stats" `Quick test_stats;
          qtest prop_random_cnf;
        ] );
      ( "identity",
        [
          Alcotest.test_case "pigeonhole 7->6" `Quick test_identity_php;
          Alcotest.test_case "planted 3-SAT with cores" `Quick test_identity_planted;
          Alcotest.test_case "minimize ladder" `Quick test_identity_ladder;
        ] );
      ( "stress",
        [
          Alcotest.test_case "incremental, 250 vars" `Quick test_stress_large;
          Alcotest.test_case "incremental vs Dpll, 20 vars" `Quick test_stress_small;
        ] );
      ( "dimacs",
        [
          Alcotest.test_case "parse" `Quick test_dimacs_parse;
          Alcotest.test_case "roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "load" `Quick test_dimacs_load;
          Alcotest.test_case "errors" `Quick test_dimacs_errors;
        ] );
    ]
