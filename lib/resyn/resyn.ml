module Circuit = Mm_core.Circuit
module Tt = Mm_boolfun.Truth_table
module Spec = Mm_boolfun.Spec
module Literal = Mm_boolfun.Literal
module Engine = Mm_engine.Engine

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
(* Fixed-point loop                                                    *)
(* ------------------------------------------------------------------ *)

type stats = {
  passes : int;
  fixed_point : bool;
  windows_attempted : int;
  windows_accepted : int;
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
  stats : stats;
}

let run ?(max_passes = 4) (spec : Spec.t) (circuit0 : Circuit.t) : t =
  (match Circuit.realizes circuit0 spec with
  | Ok () -> ()
  | Error row ->
    invalid_arg
      (Printf.sprintf "Resyn.run: input circuit wrong on row %d" row));
  let t0 = Unix.gettimeofday () in
  let steps_before = Circuit.n_steps circuit0 in
  let rejected = ref 0
  and merged_total = ref 0
  and dced_total = ref 0
  and v_saved_total = ref 0 in
  let circuit = ref circuit0 in
  (* one pass of every sweep; [true] when any of them changed something *)
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
      (match Circuit.realizes c spec with
      | Ok () -> circuit := c
      | Error _ -> incr rejected);
    m + d + v > 0
  in
  let passes = ref 0 in
  let fixed_point = ref false in
  while !passes < max_passes && not !fixed_point do
    incr passes;
    fixed_point := not (cleanup ())
  done;
  (* the pass cap ends the loop, not the work already found *)
  if not !fixed_point then ignore (cleanup ());
  let steps_after = Circuit.n_steps !circuit in
  (match Circuit.realizes !circuit spec with
  | Ok () -> ()
  | Error row ->
    failwith (Printf.sprintf "Resyn.run: result wrong on row %d" row));
  {
    circuit = !circuit;
    stats =
      {
        passes = !passes;
        fixed_point = !fixed_point;
        windows_attempted = 0;
        windows_accepted = 0;
        rejected = !rejected;
        sweep_merged = !merged_total;
        dce_removed = !dced_total;
        v_steps_saved = !v_saved_total;
        steps_before;
        steps_after;
        wall_s = Unix.gettimeofday () -. t0;
      };
  }

let optimize ?max_width:_ (_ : Engine.config) spec circuit = run spec circuit
