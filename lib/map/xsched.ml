module Literal = Mm_boolfun.Literal
module Circuit = Mm_core.Circuit
module Sat = Mm_sat.Solver
module Lit = Mm_sat.Lit

type uop =
  | U_vstep of int * int
  | U_rgate of int * int
  | U_inv of int
  | U_xfer of int

type rop_ref = Gate of int * int | Inverter of int

type cycle =
  | C_v of (int * int) list
  | C_r of rop_ref list
  | C_t of int list

type t = {
  place : Place.t;
  cycles : cycle array;
  v_cycles : int;
  r_cycles : int;
  t_cycles : int;
  polish_gain : int;
}

let n_cycles t = Array.length t.cycles

let counts cycles =
  Array.fold_left
    (fun (v, r, tr) -> function
      | C_v _ -> (v + 1, r, tr)
      | C_r _ -> (v, r + 1, tr)
      | C_t _ -> (v, r, tr + 1))
    (0, 0, 0) cycles

(* ------------------------------------------------------------------ *)
(* micro-op dependency graph                                          *)

type graph = {
  uops : uop array;
  deps : int list array;
  succs : int list array;
  vstep_ids : int array array;
  rgate_ids : int array array;
  inv_ids : int array;
  xfer_ids : int array;
}

(* per-slot, per-step shared BE rail (legs of one block must agree, as on
   the 1D schedule) *)
let be_table (p : Place.t) =
  Array.map
    (fun (sl : Place.slot) ->
      if not sl.Place.legged then [||]
      else
        let c = sl.Place.circuit in
        Array.init (Circuit.steps_per_leg c) (fun st ->
            let be = c.Circuit.legs.(0).(st).Circuit.be in
            Array.iter
              (fun (leg : Circuit.vop array) ->
                if not (Literal.equal leg.(st).Circuit.be be) then
                  invalid_arg "Xsched: legs disagree on the shared BE rail")
              c.Circuit.legs;
            be))
    p.Place.slots

let build_graph (p : Place.t) =
  let acc = ref [] and n = ref 0 in
  let push u =
    acc := u :: !acc;
    incr n;
    !n - 1
  in
  let nslots = Array.length p.Place.slots in
  let vstep_ids = Array.make nslots [||] in
  let rgate_ids = Array.make nslots [||] in
  Array.iteri
    (fun s (sl : Place.slot) ->
      let steps =
        if sl.Place.legged then Circuit.steps_per_leg sl.Place.circuit else 0
      in
      vstep_ids.(s) <- Array.init steps (fun st -> push (U_vstep (s, st)));
      rgate_ids.(s) <-
        Array.init (Array.length sl.Place.rop_ins) (fun j ->
            push (U_rgate (s, j))))
    p.Place.slots;
  let inv_ids =
    Array.init (Array.length p.Place.invs) (fun i -> push (U_inv i))
  in
  let xfer_ids =
    Array.init (Array.length p.Place.xfers) (fun i -> push (U_xfer i))
  in
  let uops = Array.of_list (List.rev !acc) in
  let nu = Array.length uops in
  let dep_of_cell c =
    match Place.producer p c with
    | Place.P_init -> None
    | Place.P_vdone s ->
      let v = vstep_ids.(s) in
      if Array.length v = 0 then None else Some v.(Array.length v - 1)
    | Place.P_rop (s, j) -> Some rgate_ids.(s).(j)
    | Place.P_xfer i -> Some xfer_ids.(i)
    | Place.P_inv i -> Some inv_ids.(i)
  in
  let deps = Array.make nu [] in
  let add_dep u = function
    | None -> ()
    | Some d -> if not (List.mem d deps.(u)) then deps.(u) <- d :: deps.(u)
  in
  Array.iteri
    (fun u op ->
      match op with
      | U_vstep (s, st) -> if st > 0 then add_dep u (Some vstep_ids.(s).(st - 1))
      | U_rgate (s, j) ->
        let a, b = p.Place.slots.(s).Place.rop_ins.(j) in
        add_dep u (dep_of_cell a);
        add_dep u (dep_of_cell b)
      | U_inv i -> add_dep u (dep_of_cell p.Place.invs.(i).Place.i_in)
      | U_xfer i -> add_dep u (dep_of_cell p.Place.xfers.(i).Place.x_src))
    uops;
  let succs = Array.make nu [] in
  Array.iteri
    (fun u ds -> List.iter (fun d -> succs.(d) <- u :: succs.(d)) ds)
    deps;
  { uops; deps; succs; vstep_ids; rgate_ids; inv_ids; xfer_ids }

let topo_order g =
  let nu = Array.length g.uops in
  let indeg = Array.make nu 0 in
  Array.iteri (fun u ds -> indeg.(u) <- List.length ds) g.deps;
  let q = Queue.create () in
  Array.iteri (fun u d -> if d = 0 then Queue.add u q) indeg;
  let order = ref [] and seen = ref 0 in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    order := u :: !order;
    incr seen;
    List.iter
      (fun v ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then Queue.add v q)
      g.succs.(u)
  done;
  if !seen <> nu then failwith "Xsched: cyclic micro-op graph (placer bug)";
  List.rev !order

(* longest path to a sink, in micro-ops — the list scheduler's priority *)
let heights g =
  let h = Array.make (Array.length g.uops) 1 in
  List.iter
    (fun u ->
      List.iter (fun v -> h.(u) <- max h.(u) (1 + h.(v))) g.succs.(u))
    (List.rev (topo_order g));
  h

let row_of_r (p : Place.t) = function
  | Gate (s, _) -> p.Place.slots.(s).Place.row
  | Inverter i -> p.Place.invs.(i).Place.i_out.Place.row

(* ------------------------------------------------------------------ *)
(* broadcast V-cycle compatibility                                    *)

(* The bit lines are shared: a cycle has ONE TE literal per driven column
   and one BE literal per active row. A set of V-steps may share a cycle
   iff (a) no column is asked for two different TE literals, (b) no row is
   asked for two different BE literals, and (c) on every active row, every
   driven column that is not one of the row's own leg columns carries a TE
   literal equal to the row's BE — zero voltage stress on every input row,
   so resident cells cannot be disturbed. *)
let v_compatible (p : Place.t) be_of set =
  let row_be = Hashtbl.create 8 in
  let col_te = Hashtbl.create 16 in
  let own = Hashtbl.create 16 in
  try
    List.iter
      (fun (s, st) ->
        let sl = p.Place.slots.(s) in
        let row = sl.Place.row in
        let be = be_of.(s).(st) in
        (match Hashtbl.find_opt row_be row with
        | Some b -> if not (Literal.equal b be) then raise Exit
        | None -> Hashtbl.add row_be row be);
        Array.iteri
          (fun l col ->
            let te = sl.Place.circuit.Circuit.legs.(l).(st).Circuit.te in
            (match Hashtbl.find_opt col_te col with
            | Some t -> if not (Literal.equal t te) then raise Exit
            | None -> Hashtbl.add col_te col te);
            Hashtbl.replace own (row, col) ())
          sl.Place.leg_cols)
      set;
    Hashtbl.iter
      (fun row be ->
        Hashtbl.iter
          (fun col te ->
            if (not (Hashtbl.mem own (row, col)))
               && not (Literal.equal te be)
            then raise Exit)
          col_te)
      row_be;
    true
  with Exit -> false

(* ------------------------------------------------------------------ *)
(* legality checker                                                   *)

let check ?(ports = max_int) (p : Place.t) (cycles : cycle array) =
  let g = build_graph p in
  let be_of = be_table p in
  let nu = Array.length g.uops in
  let cyc_of = Array.make nu (-1) in
  let error = ref None in
  let fail msg = if !error = None then error := Some msg in
  let mark u k =
    if cyc_of.(u) <> -1 then fail (Printf.sprintf "uop %d scheduled twice" u)
    else cyc_of.(u) <- k
  in
  Array.iteri
    (fun k cyc ->
      match cyc with
      | C_v set ->
        (* ranges first: the broadcast rule indexes the placement *)
        let in_range = ref true in
        List.iter
          (fun (s, st) ->
            if s < 0 || s >= Array.length g.vstep_ids
               || st < 0
               || st >= Array.length g.vstep_ids.(s)
            then begin
              fail (Printf.sprintf "cycle %d: V-step out of range" k);
              in_range := false
            end
            else mark g.vstep_ids.(s).(st) k)
          set;
        if !in_range && not (v_compatible p be_of set) then
          fail (Printf.sprintf "cycle %d: incompatible broadcast V-steps" k)
      | C_r refs ->
        let rows = Hashtbl.create 8 in
        List.iter
          (fun r ->
            let in_range =
              match r with
              | Gate (s, j) ->
                if s < 0 || s >= Array.length g.rgate_ids
                   || j < 0
                   || j >= Array.length g.rgate_ids.(s)
                then (fail (Printf.sprintf "cycle %d: R-gate out of range" k); false)
                else (mark g.rgate_ids.(s).(j) k; true)
              | Inverter i ->
                if i < 0 || i >= Array.length g.inv_ids then
                  (fail (Printf.sprintf "cycle %d: inverter out of range" k); false)
                else (mark g.inv_ids.(i) k; true)
            in
            if in_range then begin
              let row = row_of_r p r in
              if Hashtbl.mem rows row then
                fail (Printf.sprintf "cycle %d: two NOR gates on row %d" k row)
              else Hashtbl.add rows row ()
            end)
          refs
      | C_t ixs ->
        if List.length ixs > ports then
          fail (Printf.sprintf "cycle %d: transfer port budget exceeded" k);
        let rows = Hashtbl.create 8 in
        List.iter
          (fun i ->
            if i < 0 || i >= Array.length g.xfer_ids then
              fail (Printf.sprintf "cycle %d: transfer out of range" k)
            else begin
              mark g.xfer_ids.(i) k;
              let x = p.Place.xfers.(i) in
              List.iter
                (fun row ->
                  if Hashtbl.mem rows row then
                    fail
                      (Printf.sprintf
                         "cycle %d: row %d is an endpoint of two transfers" k
                         row)
                  else Hashtbl.add rows row ())
                [ x.Place.x_src.Place.row; x.Place.x_dst.Place.row ]
            end)
          ixs)
    cycles;
  Array.iteri
    (fun u k -> if k = -1 then fail (Printf.sprintf "uop %d never scheduled" u))
    cyc_of;
  Array.iteri
    (fun u ds ->
      List.iter
        (fun d ->
          if cyc_of.(u) >= 0 && cyc_of.(d) >= 0 && cyc_of.(d) >= cyc_of.(u)
          then
            fail
              (Printf.sprintf "uop %d fires in cycle %d before its operand %d"
                 u cyc_of.(u) d))
        ds)
    g.deps;
  match !error with None -> Ok () | Some m -> Error m

(* ------------------------------------------------------------------ *)
(* greedy list scheduler                                              *)

let schedule_greedy (p : Place.t) g be_of ~ports =
  let nu = Array.length g.uops in
  let h = heights g in
  let indeg = Array.make nu 0 in
  Array.iteri (fun u ds -> indeg.(u) <- List.length ds) g.deps;
  let ready = ref [] in
  Array.iteri (fun u d -> if d = 0 then ready := u :: !ready) indeg;
  let by_height a b =
    if h.(a) <> h.(b) then compare h.(b) h.(a) else compare a b
  in
  let cycles = ref [] and remaining = ref nu in
  while !remaining > 0 do
    let rl = List.sort by_height !ready in
    let best = List.hd rl in
    let kind_of u =
      match g.uops.(u) with
      | U_vstep _ -> `V
      | U_rgate _ | U_inv _ -> `R
      | U_xfer _ -> `T
    in
    let chosen, cyc =
      match kind_of best with
      | `R ->
        let rows = Hashtbl.create 8 in
        let picked =
          List.filter
            (fun u ->
              match g.uops.(u) with
              | U_rgate (s, _) ->
                let row = p.Place.slots.(s).Place.row in
                if Hashtbl.mem rows row then false
                else (Hashtbl.add rows row (); true)
              | U_inv i ->
                let row = p.Place.invs.(i).Place.i_out.Place.row in
                if Hashtbl.mem rows row then false
                else (Hashtbl.add rows row (); true)
              | _ -> false)
            rl
        in
        ( picked,
          C_r
            (List.map
               (fun u ->
                 match g.uops.(u) with
                 | U_rgate (s, j) -> Gate (s, j)
                 | U_inv i -> Inverter i
                 | _ -> assert false)
               picked) )
      | `T ->
        let rows = Hashtbl.create 8 in
        let taken = ref 0 in
        let picked =
          List.filter
            (fun u ->
              match g.uops.(u) with
              | U_xfer i when !taken < ports ->
                let x = p.Place.xfers.(i) in
                let a = x.Place.x_src.Place.row
                and b = x.Place.x_dst.Place.row in
                if Hashtbl.mem rows a || Hashtbl.mem rows b then false
                else begin
                  Hashtbl.add rows a ();
                  Hashtbl.add rows b ();
                  incr taken;
                  true
                end
              | _ -> false)
            rl
        in
        ( picked,
          C_t
            (List.map
               (fun u ->
                 match g.uops.(u) with U_xfer i -> i | _ -> assert false)
               picked) )
      | `V ->
        let set = ref [] and picked = ref [] in
        List.iter
          (fun u ->
            match g.uops.(u) with
            | U_vstep (s, st) ->
              let cand = (s, st) :: !set in
              if v_compatible p be_of cand then begin
                set := cand;
                picked := u :: !picked
              end
            | _ -> ())
          rl;
        (List.rev !picked, C_v (List.rev !set))
    in
    cycles := cyc :: !cycles;
    remaining := !remaining - List.length chosen;
    ready := List.filter (fun u -> not (List.mem u chosen)) !ready;
    List.iter
      (fun u ->
        List.iter
          (fun v ->
            indeg.(v) <- indeg.(v) - 1;
            if indeg.(v) = 0 then ready := v :: !ready)
          g.succs.(u))
      chosen
  done;
  Array.of_list (List.rev !cycles)

(* ------------------------------------------------------------------ *)
(* SAT window polish                                                  *)

let kind g u =
  match g.uops.(u) with
  | U_vstep _ -> 0
  | U_rgate _ | U_inv _ -> 1
  | U_xfer _ -> 2

(* The micro-ops of the [w] cycles starting at [lo], in cycle order. *)
let window_uops g cycles lo w =
  let us = ref [] in
  Array.iter
    (fun cyc ->
      match cyc with
      | C_v set ->
        List.iter (fun (s, st) -> us := g.vstep_ids.(s).(st) :: !us) set
      | C_r refs ->
        List.iter
          (fun r ->
            us :=
              (match r with
              | Gate (s, j) -> g.rgate_ids.(s).(j)
              | Inverter i -> g.inv_ids.(i))
              :: !us)
          refs
      | C_t ixs -> List.iter (fun i -> us := g.xfer_ids.(i) :: !us) ixs)
    (Array.sub cycles lo w);
  Array.of_list (List.rev !us)

(* [clash.(i).(j)]: same-type micro-ops [i] and [j] of a window can never
   share a cycle — two gates on one row, two transfers with a common row
   endpoint, or two V-steps that cannot broadcast together. *)
let clashes (p : Place.t) g be_of us =
  let nu = Array.length us in
  let row u =
    match g.uops.(u) with
    | U_rgate (s, j) -> row_of_r p (Gate (s, j))
    | U_inv x -> row_of_r p (Inverter x)
    | _ -> assert false
  in
  let ends i =
    let x = p.Place.xfers.(i) in
    [ x.Place.x_src.Place.row; x.Place.x_dst.Place.row ]
  in
  let clash = Array.make_matrix nu nu false in
  for i = 0 to nu - 1 do
    for j = i + 1 to nu - 1 do
      let ui = us.(i) and uj = us.(j) in
      let c =
        match (g.uops.(ui), g.uops.(uj)) with
        | (U_rgate _ | U_inv _), (U_rgate _ | U_inv _) -> row ui = row uj
        | U_xfer a, U_xfer b ->
          List.exists (fun r -> List.mem r (ends b)) (ends a)
        | U_vstep (s1, st1), U_vstep (s2, st2) ->
          not (v_compatible p be_of [ (s1, st1); (s2, st2) ])
        | _ -> false
      in
      clash.(i).(j) <- c;
      clash.(j).(i) <- c
    done
  done;
  clash

let n_xfers g us =
  Array.fold_left
    (fun acc u -> match g.uops.(u) with U_xfer _ -> acc + 1 | _ -> acc)
    0 us

(* A lower bound on the slots any answer of the window encoding needs.
   The encoding's slots are type-pure, so the bound is a sum over cycle
   types of the slots that type alone needs: the size of a clique of its
   micro-ops that pairwise cannot share a slot (a clash, or a dependency
   chain inside the window, which the precedence clauses order strictly),
   and for transfers also ⌈n_t / ports⌉ under the port clauses. Cliques
   are grown greedily in index order from every seed, keeping the
   largest. *)
let slot_bound g ~ports us clash =
  let nu = Array.length us in
  let local = Hashtbl.create 16 in
  Array.iteri (fun i u -> Hashtbl.replace local u i) us;
  (* before.(i).(j): a window-internal dependency chain runs from j to i *)
  let before = Array.make_matrix nu nu false in
  let closed = Array.make nu false in
  let rec close i =
    if not closed.(i) then begin
      closed.(i) <- true;
      List.iter
        (fun d ->
          match Hashtbl.find_opt local d with
          | None -> ()
          | Some j ->
            close j;
            before.(i).(j) <- true;
            Array.iteri (fun k b -> if b then before.(i).(k) <- true) before.(j))
        g.deps.(us.(i))
    end
  in
  for i = 0 to nu - 1 do
    close i
  done;
  let apart i j = clash.(i).(j) || before.(i).(j) || before.(j).(i) in
  let clique members =
    List.fold_left
      (fun best seed ->
        let grown =
          List.fold_left
            (fun cl v ->
              if v <> seed && List.for_all (apart v) cl then v :: cl else cl)
            [ seed ] members
        in
        max best (List.length grown))
      0 members
  in
  let members k = List.filter (fun i -> kind g us.(i) = k) (List.init nu Fun.id) in
  let n_t = n_xfers g us in
  clique (members 0)
  + clique (members 1)
  + max (clique (members 2)) (if ports < n_t then (n_t + ports - 1) / ports else 0)

(* The makespan encoding of packing window micro-ops [us] into [m] slots:
   one variable per (uop, slot), exactly-one per uop, precedence between
   window-internal dependents, slot purity (one cycle type per slot), the
   pairwise clashes and the transfer port budget. *)
let encode g ~ports us clash m =
  let nu = Array.length us in
  let n_t = n_xfers g us in
  let local = Hashtbl.create 16 in
  Array.iteri (fun i u -> Hashtbl.add local u i) us;
  let solver = Sat.create () in
  let var = Array.init nu (fun _ -> Array.init m (fun _ -> Sat.new_var solver)) in
  for i = 0 to nu - 1 do
    Sat.add_clause solver (List.init m (fun t -> Lit.pos var.(i).(t)));
    for t1 = 0 to m - 1 do
      for t2 = t1 + 1 to m - 1 do
        Sat.add_clause solver [ Lit.neg_of var.(i).(t1); Lit.neg_of var.(i).(t2) ]
      done
    done
  done;
  let forbid_same_slot i j =
    for t = 0 to m - 1 do
      Sat.add_clause solver [ Lit.neg_of var.(i).(t); Lit.neg_of var.(j).(t) ]
    done
  in
  (* precedence between window-internal dependents *)
  Array.iteri
    (fun i u ->
      List.iter
        (fun d ->
          match Hashtbl.find_opt local d with
          | None -> ()
          | Some j ->
            (* d must fire strictly before u *)
            for t = 0 to m - 1 do
              for t' = t to m - 1 do
                Sat.add_clause solver
                  [ Lit.neg_of var.(i).(t); Lit.neg_of var.(j).(t') ]
              done
            done)
        g.deps.(u))
    us;
  for i = 0 to nu - 1 do
    for j = i + 1 to nu - 1 do
      if kind g us.(i) <> kind g us.(j) || clash.(i).(j) then forbid_same_slot i j
    done
  done;
  (* transfer port budget: forbid every (ports+1)-subset of transfers in
     one slot (n_t is capped small, so this stays tiny) *)
  if ports < n_t then begin
    let ts =
      List.filter
        (fun i -> match g.uops.(us.(i)) with U_xfer _ -> true | _ -> false)
        (List.init nu Fun.id)
    in
    let rec subsets k xs =
      if k = 0 then [ [] ]
      else
        match xs with
        | [] -> []
        | x :: rest ->
          List.map (fun s -> x :: s) (subsets (k - 1) rest) @ subsets k rest
    in
    List.iter
      (fun subset ->
        for t = 0 to m - 1 do
          Sat.add_clause solver
            (List.map (fun i -> Lit.neg_of var.(i).(t)) subset)
        done)
      (subsets (ports + 1) ts)
  end;
  (solver, var)

(* The cycles of a solved encoding, one per non-empty slot. *)
let decode g us solver var m =
  let slots = Array.make m [] in
  Array.iteri
    (fun i u ->
      let t = ref (-1) in
      for t' = 0 to m - 1 do
        if Sat.value_var solver var.(i).(t') then t := t'
      done;
      slots.(!t) <- u :: slots.(!t))
    us;
  Array.to_list slots
  |> List.filter_map (fun members ->
         match members with
         | [] -> None
         | u :: _ ->
           Some
             (match g.uops.(u) with
             | U_vstep _ ->
               C_v
                 (List.rev_map
                    (fun u ->
                      match g.uops.(u) with
                      | U_vstep (s, st) -> (s, st)
                      | _ -> assert false)
                    members)
             | U_rgate _ | U_inv _ ->
               C_r
                 (List.rev_map
                    (fun u ->
                      match g.uops.(u) with
                      | U_rgate (s, j) -> Gate (s, j)
                      | U_inv i -> Inverter i
                      | _ -> assert false)
                    members)
             | U_xfer _ ->
               C_t
                 (List.rev_map
                    (fun u ->
                      match g.uops.(u) with
                      | U_xfer i -> i
                      | _ -> assert false)
                    members)))

(* Try to repack the [w] cycles starting at [lo] into [w - 1] slots. A
   window whose slot bound already exceeds [w - 1] is unsatisfiable under
   the encoding and skipped without a solver. Pairwise V-compatibility
   under-approximates the set-wise broadcast rule, so any SAT answer is
   re-validated through {!check} before it replaces the window — polish
   can only ever tighten a schedule, never corrupt it. *)
let try_window (p : Place.t) g be_of ~ports cycles lo w =
  let us = window_uops g cycles lo w in
  let nu = Array.length us in
  if nu = 0 || nu > 64 || n_xfers g us > 12 then None
  else
    let m = w - 1 in
    let clash = clashes p g be_of us in
    if slot_bound g ~ports us clash > m then None
    else
      let solver, var = encode g ~ports us clash m in
      match Sat.solve ~max_conflicts:4000 solver with
      | Sat.Unsat | Sat.Unknown -> None
      | Sat.Sat ->
        let spliced =
          Array.concat
            [
              Array.sub cycles 0 lo;
              Array.of_list (decode g us solver var m);
              Array.sub cycles (lo + w) (Array.length cycles - lo - w);
            ]
        in
        if Array.length spliced >= Array.length cycles then None
        else
          match check ~ports p spliced with
          | Ok () -> Some spliced
          | Error _ -> None

(* Exposed for tests. *)
let window_bound ~ports (p : Place.t) cycles ~lo ~w =
  let g = build_graph p in
  let us = window_uops g cycles lo w in
  slot_bound g ~ports us (clashes p g (be_table p) us)

let window_verdict ~ports (p : Place.t) cycles ~lo ~w =
  let g = build_graph p in
  let us = window_uops g cycles lo w in
  let solver, _ = encode g ~ports us (clashes p g (be_table p) us) (w - 1) in
  Sat.solve solver

(* The polish's window width, and its cap on window solves per schedule. *)
let window = 8
let max_window_calls = 128

(* Slide the window over [cycles], repacking it in place while it shrinks. *)
let repack (p : Place.t) g be_of ~ports cycles =
  let cycles = ref cycles and calls = ref 0 in
  let lo = ref 0 in
  while !lo + window <= Array.length !cycles && !calls < max_window_calls do
    incr calls;
    match try_window p g be_of ~ports !cycles !lo window with
    | Some better -> cycles := better (* retry the same position *)
    | None -> incr lo
  done;
  !cycles

(* ------------------------------------------------------------------ *)

let build ?(ports = 4) ?(polish = true) (p : Place.t) =
  if ports < 1 then invalid_arg "Xsched.build: ports < 1";
  let g = build_graph p in
  let be_of = be_table p in
  let greedy = schedule_greedy p g be_of ~ports in
  (match check ~ports p greedy with
  | Ok () -> ()
  | Error m -> failwith ("Xsched.build: greedy schedule illegal: " ^ m));
  let final =
    if polish && Array.length greedy > window then
      repack p g be_of ~ports greedy
    else greedy
  in
  (match check ~ports p final with
  | Ok () -> ()
  | Error m -> failwith ("Xsched.build: polished schedule illegal: " ^ m));
  let v, r, tr = counts final in
  {
    place = p;
    cycles = final;
    v_cycles = v;
    r_cycles = r;
    t_cycles = tr;
    polish_gain = Array.length greedy - Array.length final;
  }
