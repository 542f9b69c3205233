module Circuit = Mm_core.Circuit
module Tt = Mm_boolfun.Truth_table
module Spec = Mm_boolfun.Spec
module Literal = Mm_boolfun.Literal
module Engine = Mm_engine.Engine
module Stitch = Mm_map.Stitch
module Xstitch = Mm_map.Xstitch
module Mapper = Mm_map.Mapper
module Blocklib = Mm_map.Blocklib
module Cut = Mm_map.Cut
module Aig = Mm_map.Aig

(* ------------------------------------------------------------------ *)
(* Cleanup sweeps                                                      *)
(* ------------------------------------------------------------------ *)

let sweep_merge (c : Circuit.t) =
  let n = c.Circuit.arity in
  let n_r = Circuit.n_rops c in
  if n > 14 || n_r = 0 then (c, 0)
  else begin
    (* available signals by global function; first definition wins so every
       redirect points strictly backwards *)
    let map = Hashtbl.create (4 * n_r) in
    let remember tt s =
      let k = Tt.to_string tt in
      if not (Hashtbl.mem map k) then Hashtbl.add map k s
    in
    List.iter
      (fun l -> remember (Literal.table n l) (Circuit.From_literal l))
      (Literal.all n);
    Array.iteri
      (fun l ops ->
        if Array.length ops > 0 then
          remember
            (Circuit.leg_value c ~leg:l ~step:(Array.length ops - 1))
            (Circuit.From_leg l))
      c.Circuit.legs;
    let subst = Array.make n_r None in
    let resolve (s : Circuit.source) =
      match s with
      | Circuit.From_rop r -> (
        match subst.(r) with Some s' -> s' | None -> s)
      | s -> s
    in
    let merged = ref 0 in
    let values = Circuit.rop_values c in
    let rops' = Array.make n_r c.Circuit.rops.(0) in
    for i = 0 to n_r - 1 do
      let r = c.Circuit.rops.(i) in
      rops'.(i) <-
        { Circuit.in1 = resolve r.Circuit.in1; in2 = resolve r.Circuit.in2 };
      let k = Tt.to_string values.(i) in
      match Hashtbl.find_opt map k with
      | Some s ->
        subst.(i) <- Some s;
        incr merged
      | None -> Hashtbl.add map k (Circuit.From_rop i)
    done;
    if !merged = 0 then (c, 0)
    else
      let outputs = Array.map resolve c.Circuit.outputs in
      ( Circuit.make ~arity:n ~rop_kind:c.Circuit.rop_kind ~legs:c.Circuit.legs
          ~rops:rops' ~outputs (),
        !merged )
  end

let dce (c : Circuit.t) =
  let n_r = Circuit.n_rops c in
  if n_r = 0 then (c, 0)
  else begin
    let live = Array.make n_r false in
    let rec mark (s : Circuit.source) =
      match s with
      | Circuit.From_rop r ->
        if not live.(r) then begin
          live.(r) <- true;
          mark c.Circuit.rops.(r).Circuit.in1;
          mark c.Circuit.rops.(r).Circuit.in2
        end
      | _ -> ()
    in
    Array.iter mark c.Circuit.outputs;
    let dead = ref 0 in
    Array.iter (fun b -> if not b then incr dead) live;
    if !dead = 0 then (c, 0)
    else begin
      let remap = Array.make n_r (-1) in
      let next = ref 0 in
      for i = 0 to n_r - 1 do
        if live.(i) then begin
          remap.(i) <- !next;
          incr next
        end
      done;
      let shift (s : Circuit.source) =
        match s with
        | Circuit.From_rop r -> Circuit.From_rop remap.(r)
        | s -> s
      in
      let rops' = Array.make !next c.Circuit.rops.(0) in
      for i = 0 to n_r - 1 do
        if live.(i) then
          let r = c.Circuit.rops.(i) in
          rops'.(remap.(i)) <-
            { Circuit.in1 = shift r.Circuit.in1; in2 = shift r.Circuit.in2 }
      done;
      let outputs = Array.map shift c.Circuit.outputs in
      ( Circuit.make ~arity:c.Circuit.arity ~rop_kind:c.Circuit.rop_kind
          ~legs:c.Circuit.legs ~rops:rops' ~outputs (),
        !dead )
    end
  end

(* Leg compaction under the shared-BE-rail constraint.

   A V-op with TE = BE is a hold (Table I): it never changes the leg's
   accumulated state. The stitcher serializes independent blocks in time,
   padding every other leg with holds over each block's span — but the
   only physical coupling between legs is the shared BE rail (all legs see
   the same BE literal at each step; a leg not scheduled at a step simply
   holds with TE = BE = rail). So the minimum-length legal schedule is the
   shortest rail string that contains every leg's BE sequence (its real,
   non-hold ops, in order) as a subsequence: a shortest common
   supersequence. We solve it exactly by BFS over position vectors when
   the (deduplicated, domination-pruned) state space is small, otherwise
   with the majority-merge greedy; each leg then embeds by earliest match
   and holds elsewhere. Mid-leg taps follow their op to its new step. *)

let scs_state_cap = 2_000_000

(* earliest-match test: is [a] a subsequence of [b]? *)
let subseq (a : Literal.t array) (b : Literal.t array) =
  let j = ref 0 in
  Array.iter (fun x -> if !j < Array.length a && a.(!j) = x then incr j) b;
  !j = Array.length a

(* majority-merge greedy: repeatedly emit the literal wanted next by the
   most sequences (ties: the one whose backlog is longest, then leftmost) *)
let scs_greedy (seqs : Literal.t array array) : Literal.t list =
  let m = Array.length seqs in
  let pos = Array.make m 0 in
  let rail = ref [] in
  let live () = Array.exists (fun i -> i >= 0) (Array.mapi
      (fun l p -> if p < Array.length seqs.(l) then 0 else -1) pos)
  in
  while live () do
    let score = Hashtbl.create 8 in
    Array.iteri
      (fun l p ->
        if p < Array.length seqs.(l) then begin
          let lit = seqs.(l).(p) in
          let cnt, backlog =
            Option.value ~default:(0, 0) (Hashtbl.find_opt score lit)
          in
          Hashtbl.replace score lit
            (cnt + 1, max backlog (Array.length seqs.(l) - p))
        end)
      pos;
    let best = ref None in
    Hashtbl.iter
      (fun lit (cnt, backlog) ->
        match !best with
        | Some (_, bc, bb) when (cnt, backlog) <= (bc, bb) -> ()
        | _ -> best := Some (lit, cnt, backlog))
      score;
    match !best with
    | None -> ()
    | Some (lit, _, _) ->
      rail := lit :: !rail;
      Array.iteri
        (fun l p ->
          if p < Array.length seqs.(l) && seqs.(l).(p) = lit then
            pos.(l) <- p + 1)
        pos
  done;
  List.rev !rail

(* exact SCS: BFS over position vectors (all edges cost 1). Returns None
   when the product state space exceeds the cap. *)
let scs_exact (seqs : Literal.t array array) : Literal.t list option =
  let m = Array.length seqs in
  let strides = Array.make m 1 in
  let total = ref 1 and overflow = ref false in
  for l = 0 to m - 1 do
    strides.(l) <- !total;
    let w = Array.length seqs.(l) + 1 in
    if !total > scs_state_cap / w then overflow := true
    else total := !total * w
  done;
  if !overflow then None
  else begin
    let n_states = !total in
    let goal = n_states - 1 in
    let prev = Array.make n_states (-1) in
    let via = Array.make n_states Literal.Const0 in
    let q = Queue.create () in
    Queue.add 0 q;
    prev.(0) <- 0;
    let found = ref (goal = 0) in
    while (not !found) && not (Queue.is_empty q) do
      let s = Queue.pop q in
      let pos = Array.init m (fun l -> s / strides.(l) mod (Array.length seqs.(l) + 1)) in
      (* candidate next literals = the distinct heads *)
      let heads = Hashtbl.create 8 in
      Array.iteri
        (fun l p ->
          if p < Array.length seqs.(l) then
            Hashtbl.replace heads seqs.(l).(p) ())
        pos;
      Hashtbl.iter
        (fun lit () ->
          let s' = ref s in
          Array.iteri
            (fun l p ->
              if p < Array.length seqs.(l) && seqs.(l).(p) = lit then
                s' := !s' + strides.(l))
            pos;
          if prev.(!s') < 0 then begin
            prev.(!s') <- s;
            via.(!s') <- lit;
            if !s' = goal then found := true else Queue.add !s' q
          end)
        heads
    done;
    if not !found then None (* unreachable only when m = 0 handled above *)
    else begin
      let rail = ref [] in
      let s = ref goal in
      while !s <> 0 do
        rail := via.(!s) :: !rail;
        s := prev.(!s)
      done;
      Some !rail
    end
  end

let compact_legs (c : Circuit.t) =
  let legs = c.Circuit.legs in
  let n_legs = Array.length legs in
  if n_legs = 0 then (c, 0)
  else begin
    let old_len = Array.length legs.(0) in
    (* real (non-hold) ops per leg, with their original step indices *)
    let real =
      Array.map
        (fun ops ->
          let acc = ref [] in
          Array.iteri
            (fun s (op : Circuit.vop) ->
              if op.Circuit.te <> op.Circuit.be then acc := (s, op) :: !acc)
            ops;
          Array.of_list (List.rev !acc))
        legs
    in
    let be_seq =
      Array.map (Array.map (fun (_, op) -> op.Circuit.be)) real
    in
    (* rail = SCS over distinct, non-dominated BE sequences: a sequence
       that is a subsequence of another is satisfied by any rail
       satisfying the dominating one *)
    let distinct =
      Array.to_list be_seq
      |> List.filter (fun s -> Array.length s > 0)
      |> List.sort_uniq compare
    in
    let kept =
      List.filter
        (fun s ->
          not
            (List.exists (fun t -> t <> s && subseq s t) distinct))
        distinct
    in
    let seqs = Array.of_list kept in
    let rail =
      if Array.length seqs = 0 then []
      else
        match scs_exact seqs with
        | Some r -> r
        | None -> scs_greedy seqs
    in
    let new_len = List.length rail in
    if new_len >= old_len then (c, 0)
    else begin
      let rail = Array.of_list rail in
      (* embed every leg by earliest match; record each op's new step *)
      let hold lit = { Circuit.te = lit; be = lit } in
      let placed = Array.map (fun r -> Array.make (Array.length r) (-1)) real in
      let legs' =
        Array.mapi
          (fun l r ->
            let out = Array.init new_len (fun t -> hold rail.(t)) in
            let j = ref 0 in
            Array.iteri
              (fun t lit ->
                if !j < Array.length r then begin
                  let _, op = r.(!j) in
                  if op.Circuit.be = lit then begin
                    out.(t) <- op;
                    placed.(l).(!j) <- t;
                    incr j
                  end
                end)
              rail;
            if !j < Array.length r then
              (* cannot happen: every BE sequence is a subsequence of the
                 rail by construction *)
              invalid_arg "Resyn.compact_legs: leg failed to embed";
            out)
          real
      in
      (* original step s on leg l -> index of last real op at or before s *)
      let op_upto =
        Array.mapi
          (fun l ops ->
            let pos = Array.make (Array.length ops) (-1) in
            let k = ref (-1) in
            let next = ref 0 in
            Array.iteri
              (fun s _ ->
                if
                  !next < Array.length real.(l)
                  && fst real.(l).(!next) = s
                then begin
                  k := !next;
                  incr next
                end;
                pos.(s) <- !k)
              ops;
            pos)
          legs
      in
      let conv (s : Circuit.source) =
        match s with
        | Circuit.From_vop (l, st) ->
          let k = op_upto.(l).(st) in
          if k < 0 then Circuit.From_literal Literal.Const0
          else Circuit.From_vop (l, placed.(l).(k))
        | s -> s
      in
      let rops =
        Array.map
          (fun (r : Circuit.rop) ->
            { Circuit.in1 = conv r.Circuit.in1; in2 = conv r.Circuit.in2 })
          c.Circuit.rops
      in
      let outputs = Array.map conv c.Circuit.outputs in
      ( Circuit.make ~arity:c.Circuit.arity ~rop_kind:c.Circuit.rop_kind
          ~legs:legs' ~rops ~outputs (),
        old_len - new_len )
    end
  end

(* ------------------------------------------------------------------ *)
(* 1D driver                                                           *)
(* ------------------------------------------------------------------ *)

type stats = {
  passes : int;
  fixed_point : bool;
  windows_attempted : int;
  windows_accepted : int;
  trivial_hits : int;
  atlas_hits : int;
  solver_hits : int;
  probe_calls : int;
  rejected : int;
  sweep_merged : int;
  dce_removed : int;
  v_steps_saved : int;
  steps_before : int;
  steps_after : int;
  wall_s : float;
}

type t = {
  circuit : Circuit.t;
  splices : Rewrite.candidate list;
  stats : stats;
}

let optimize ?(max_width = 6) ?(max_live = 6) ?(max_passes = 4)
    (cfg : Engine.config) (spec : Spec.t) (circuit0 : Circuit.t) : t =
  (match Circuit.realizes circuit0 spec with
  | Ok () -> ()
  | Error row ->
    invalid_arg
      (Printf.sprintf "Resyn.optimize: input circuit wrong on row %d" row));
  let t0 = Unix.gettimeofday () in
  let steps_before = Circuit.n_steps circuit0 in
  let memo : (string * int, Engine.probe option) Hashtbl.t =
    Hashtbl.create 64
  in
  let probe_calls = ref 0 in
  let probe ~budget_rops tt =
    let key = (Tt.to_string tt, budget_rops) in
    match Hashtbl.find_opt memo key with
    | Some r -> r
    | None ->
      incr probe_calls;
      let r = Engine.probe_window cfg ~budget_rops tt in
      Hashtbl.add memo key r;
      r
  in
  let attempted = ref 0
  and accepted = ref 0
  and trivial = ref 0
  and atlas = ref 0
  and solver = ref 0
  and rejected = ref 0
  and merged_total = ref 0
  and dced_total = ref 0
  and v_saved_total = ref 0 in
  let splices = ref [] in
  let circuit = ref circuit0 in
  let cleanup () =
    let c, m = sweep_merge !circuit in
    let c, d = dce c in
    let c, v = compact_legs c in
    merged_total := !merged_total + m;
    dced_total := !dced_total + d;
    v_saved_total := !v_saved_total + v;
    if m + d + v > 0 then
      (* redirects point backwards and dead-code removal only drops
         unreachable ops, so this cannot fire; zero-trust anyway *)
      match Circuit.realizes c spec with
      | Ok () -> circuit := c
      | Error _ -> incr rejected
  in
  let record (cand : Rewrite.candidate) =
    splices := cand :: !splices;
    incr accepted;
    match cand.Rewrite.origin with
    | Rewrite.Trivial -> incr trivial
    | Rewrite.Atlas -> incr atlas
    | Rewrite.Solver -> incr solver
  in
  (* One sweep: scan all windows (widest first — biggest budgets give the
     solver the most room), splice the first acceptable rewrite, then
     re-enumerate on the rewritten circuit and repeat. Every acceptance
     strictly decreases the R-op count, so the loop terminates; probe
     memoization keeps re-scanned windows cheap. *)
  let sweep () =
    let accepted_here = ref 0 in
    let continue_scan = ref true in
    while !continue_scan do
      let ws =
        Window.enumerate ~max_width ~max_live !circuit
        |> List.sort (fun a b ->
               if Window.width a <> Window.width b then
                 compare (Window.width b) (Window.width a)
               else compare a.Window.live_out b.Window.live_out)
      in
      let rec scan = function
        | [] -> continue_scan := false
        | w :: rest -> (
          incr attempted;
          match Rewrite.attempt ~probe !circuit w with
          | None -> scan rest
          | Some (c', cand) -> (
            match Circuit.realizes c' spec with
            | Ok () ->
              circuit := c';
              record cand;
              incr accepted_here
            | Error _ ->
              incr rejected;
              scan rest))
      in
      scan ws
    done;
    !accepted_here
  in
  let passes = ref 0 in
  let fixed_point = ref false in
  (try
     while !passes < max_passes && not !fixed_point do
       incr passes;
       let m0 = !merged_total + !dced_total + !v_saved_total in
       cleanup ();
       let got = sweep () in
       if got = 0 && !merged_total + !dced_total + !v_saved_total = m0 then
         fixed_point := true
     done
   with e -> raise e);
  cleanup ();
  let steps_after = Circuit.n_steps !circuit in
  (match Circuit.realizes !circuit spec with
  | Ok () -> ()
  | Error row ->
    failwith (Printf.sprintf "Resyn.optimize: result wrong on row %d" row));
  {
    circuit = !circuit;
    splices = List.rev !splices;
    stats =
      {
        passes = !passes;
        fixed_point = !fixed_point;
        windows_attempted = !attempted;
        windows_accepted = !accepted;
        trivial_hits = !trivial;
        atlas_hits = !atlas;
        solver_hits = !solver;
        probe_calls = !probe_calls;
        rejected = !rejected;
        sweep_merged = !merged_total;
        dce_removed = !dced_total;
        v_steps_saved = !v_saved_total;
        steps_before;
        steps_after;
        wall_s = Unix.gettimeofday () -. t0;
      };
  }

(* ------------------------------------------------------------------ *)
(* Crossbar driver (cover level)                                       *)
(* ------------------------------------------------------------------ *)

type xstats = {
  xpasses : int;
  merges_attempted : int;
  merges_accepted : int;
  rebuilds_rejected : int;
  cycles_before : int;
  cycles_after : int;
  xwall_s : float;
}

type xresult = {
  result : Xstitch.result;
  xstats : xstats;
}

type merge_candidate = {
  consumer : int;  (* index into the blocks array *)
  producer : int;
  mblock : Mapper.block;  (* the merged replacement *)
  gain : float;
}

(* Merge candidates over one cover: absorb a producer block consumed by
   exactly one other block (and not feeding an output) into its consumer,
   when the composed function fits the ≤4-support library universe. *)
let merge_candidates ~v_weight (lib : Blocklib.t) (m : Mapper.mapping) :
    int * merge_candidate list =
  let aig = m.Mapper.aig in
  let n_in = Aig.n_inputs aig in
  let blocks = Array.of_list m.Mapper.blocks in
  let idx_of_root = Hashtbl.create 32 in
  Array.iteri
    (fun i (b : Mapper.block) -> Hashtbl.replace idx_of_root b.Mapper.root i)
    blocks;
  let consumers = Hashtbl.create 32 in
  Array.iter
    (fun (b : Mapper.block) ->
      Array.iter
        (fun l ->
          Hashtbl.replace consumers l
            (1 + Option.value ~default:0 (Hashtbl.find_opt consumers l)))
        b.Mapper.cut.Cut.leaves)
    blocks;
  let out_nodes = Hashtbl.create 8 in
  Array.iter
    (fun lit -> Hashtbl.replace out_nodes (Aig.lit_node lit) ())
    (Aig.outputs aig);
  let cost (e : Blocklib.entry) =
    (v_weight *. float_of_int e.Blocklib.steps) +. float_of_int e.Blocklib.rops
  in
  let attempted = ref 0 in
  let cands = ref [] in
  Array.iteri
    (fun bi (b : Mapper.block) ->
      Array.iter
        (fun l ->
          if l > n_in then
            match Hashtbl.find_opt idx_of_root l with
            | None -> ()
            | Some pi ->
              let p = blocks.(pi) in
              if
                Hashtbl.find_opt consumers l = Some 1
                && not (Hashtbl.mem out_nodes l)
              then begin
                incr attempted;
                let ext =
                  Array.to_list b.Mapper.cut.Cut.leaves
                  |> List.filter (fun x -> x <> l)
                  |> List.append (Array.to_list p.Mapper.cut.Cut.leaves)
                  |> List.sort_uniq compare
                in
                if List.length ext <= 6 then begin
                  let ext_a = Array.of_list ext in
                  let me = Array.length ext_a in
                  let pos = Hashtbl.create 8 in
                  Array.iteri (fun i x -> Hashtbl.replace pos x i) ext_a;
                  let eval_block (blk : Mapper.block) extra q =
                    let bits =
                      Array.map
                        (fun leaf ->
                          match extra leaf with
                          | Some v -> v
                          | None ->
                            Tt.input_bit me q (Hashtbl.find pos leaf + 1))
                        blk.Mapper.cut.Cut.leaves
                    in
                    let row = ref 0 in
                    let k = Array.length bits in
                    Array.iteri
                      (fun i v -> if v then row := !row lor (1 lsl (k - 1 - i)))
                      bits;
                    Tt.eval blk.Mapper.cut.Cut.tt !row
                  in
                  let raw =
                    Tt.of_fun me (fun q ->
                        let pv = eval_block p (fun _ -> None) q in
                        eval_block b
                          (fun leaf -> if leaf = l then Some pv else None)
                          q)
                  in
                  let sup = Tt.support raw in
                  let nsup = List.length sup in
                  if nsup >= 1 && nsup <= 4 then begin
                    let tt = Tt.project raw sup in
                    let leaves =
                      Array.of_list (List.map (fun v -> ext_a.(v - 1)) sup)
                    in
                    let kind =
                      if Array.for_all (fun x -> x <= n_in) leaves then
                        Blocklib.Mixed
                      else Blocklib.R_only
                    in
                    let entry = Blocklib.lookup lib kind tt in
                    let gain =
                      cost b.Mapper.entry +. cost p.Mapper.entry -. cost entry
                    in
                    if gain > 0.0 then
                      cands :=
                        {
                          consumer = bi;
                          producer = pi;
                          mblock =
                            {
                              Mapper.root = b.Mapper.root;
                              cut = { Cut.leaves; tt };
                              entry;
                            };
                          gain;
                        }
                        :: !cands
                  end
                end
              end)
        b.Mapper.cut.Cut.leaves)
    blocks;
  (!attempted, List.sort (fun a b -> compare b.gain a.gain) !cands)

let apply_merges (m : Mapper.mapping) (picked : merge_candidate list) :
    Mapper.mapping =
  let blocks = Array.of_list m.Mapper.blocks in
  let drop = Hashtbl.create 8 in
  List.iter
    (fun c ->
      blocks.(c.consumer) <- c.mblock;
      Hashtbl.replace drop c.producer ())
    picked;
  let blocks' =
    Array.to_list blocks
    |> List.filteri (fun i _ -> not (Hashtbl.mem drop i))
    |> List.sort (fun (a : Mapper.block) b -> compare a.Mapper.root b.Mapper.root)
  in
  { m with Mapper.blocks = blocks' }

let optimize_xbar ?(max_passes = 4) ?(rows = 16) ?(ports = 4) ?(polish = true)
    ?(v_weight = 2.0) (cfg : Engine.config) (spec : Spec.t)
    (r0 : Xstitch.result) : xresult =
  let t0 = Unix.gettimeofday () in
  let lib = Blocklib.create cfg in
  let attempted = ref 0
  and accepted = ref 0
  and rejects = ref 0 in
  let best = ref r0 in
  let passes = ref 0 in
  let continue_loop = ref true in
  while !continue_loop && !passes < max_passes do
    incr passes;
    let mapping = !best.Xstitch.stitch.Stitch.mapping in
    let att, cands = merge_candidates ~v_weight lib mapping in
    attempted := !attempted + att;
    (* greedy disjoint pick by gain *)
    let used = Hashtbl.create 8 in
    let picked =
      List.filter
        (fun c ->
          if Hashtbl.mem used c.consumer || Hashtbl.mem used c.producer then
            false
          else begin
            Hashtbl.replace used c.consumer ();
            Hashtbl.replace used c.producer ();
            true
          end)
        cands
    in
    let try_rebuild picked =
      if picked = [] then None
      else
        match
          let mapping' = apply_merges mapping picked in
          let stitched' = Stitch.lower spec mapping' in
          let stitch' =
            {
              !best.Xstitch.stitch with
              Stitch.stitched = stitched';
              mapping = mapping';
              dag = Mapper.dag mapping';
            }
          in
          Xstitch.of_stitch ~rows ~ports ~polish stitch' spec
        with
        | r'
          when r'.Xstitch.verified && r'.Xstitch.cycles < !best.Xstitch.cycles
          ->
          Some (r', List.length picked)
        | _ -> None
        | exception _ -> None
    in
    match try_rebuild picked with
    | Some (r', n) ->
      best := r';
      accepted := !accepted + n
    | None -> (
      if picked <> [] then incr rejects;
      (* the batch failed or did not improve; try just the best merge *)
      match
        match picked with [] -> None | best_one :: _ -> try_rebuild [ best_one ]
      with
      | Some (r', n) ->
        best := r';
        accepted := !accepted + n
      | None ->
        if List.length picked > 1 then incr rejects;
        continue_loop := false)
  done;
  {
    result = !best;
    xstats =
      {
        xpasses = !passes;
        merges_attempted = !attempted;
        merges_accepted = !accepted;
        rebuilds_rejected = !rejects;
        cycles_before = r0.Xstitch.cycles;
        cycles_after = !best.Xstitch.cycles;
        xwall_s = Unix.gettimeofday () -. t0;
      };
  }
