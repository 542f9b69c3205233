module Lit = Mm_sat.Lit
module Solver = Mm_sat.Solver

type t = {
  solver : Solver.t option;
  keep : bool;
  mutable stored : Lit.t list list; (* reversed *)
  mutable num_vars : int;
  mutable num_clauses : int;
  mutable true_lit : Lit.t option;
}

let create ?(keep_clauses = false) ?solver () =
  {
    solver;
    keep = keep_clauses;
    stored = [];
    num_vars = 0;
    num_clauses = 0;
    true_lit = None;
  }

let fresh_var t =
  let v =
    match t.solver with
    | Some s -> Solver.new_var s
    | None -> t.num_vars
  in
  t.num_vars <- t.num_vars + 1;
  v

let fresh_lit t = Lit.pos (fresh_var t)
let fresh_lits t k = Array.init k (fun _ -> fresh_lit t)

let add t clause =
  t.num_clauses <- t.num_clauses + 1;
  if t.keep then t.stored <- clause :: t.stored;
  match t.solver with Some s -> Solver.add_clause s clause | None -> ()

let num_vars t = t.num_vars
let num_clauses t = t.num_clauses

let const_true t =
  match t.true_lit with
  | Some l -> l
  | None ->
    let l = fresh_lit t in
    add t [ l ];
    t.true_lit <- Some l;
    l

let const_false t = Lit.negate (const_true t)

let to_dimacs t =
  if not t.keep then invalid_arg "Builder.to_dimacs: keep_clauses not set";
  {
    Mm_sat.Dimacs.num_vars = t.num_vars;
    clauses = List.rev_map (List.map Lit.to_dimacs) t.stored;
  }

let define_and t a b =
  let z = fresh_lit t in
  add t [ Lit.negate z; a ];
  add t [ Lit.negate z; b ];
  add t [ z; Lit.negate a; Lit.negate b ];
  z

let define_or t a b = Lit.negate (define_and t (Lit.negate a) (Lit.negate b))
let define_nor t a b = define_and t (Lit.negate a) (Lit.negate b)

let define_xor t a b =
  let z = fresh_lit t in
  add t [ Lit.negate z; a; b ];
  add t [ Lit.negate z; Lit.negate a; Lit.negate b ];
  add t [ z; Lit.negate a; b ];
  add t [ z; a; Lit.negate b ];
  z

let define_andn t lits =
  match lits with
  | [] -> const_true t
  | [ l ] -> l
  | _ ->
    let z = fresh_lit t in
    List.iter (fun l -> add t [ Lit.negate z; l ]) lits;
    add t (z :: List.map Lit.negate lits);
    z

let implies_clause t antecedent cs =
  add t (List.map Lit.negate antecedent @ cs)

let implies_equiv t antecedent a b =
  implies_clause t antecedent [ Lit.negate a; b ];
  implies_clause t antecedent [ a; Lit.negate b ]

let fix t l b = add t [ (if b then l else Lit.negate l) ]

let chain_implies t lits =
  for k = 0 to Array.length lits - 2 do
    add t [ Lit.negate lits.(k + 1); lits.(k) ]
  done
