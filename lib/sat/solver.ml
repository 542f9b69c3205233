(* Conflict-driven clause learning in the MiniSat lineage.

   Storage. Every clause lives in one flat int arena (a Bigarray, see
   below), addressed by its clause reference [c] = the offset of its first
   word:
     arena.{c}      header: (length lsl 2) lor flags (learnt, removed);
     arena.{c + 1}  LBD word: a learnt clause's LBD in the low [slot_shift]
                    bits and its activity slot above them; 0 for problem
                    clauses;
     arena.{c + 2 + i}  literal i.
   Learnt-clause activities live in [cla_act], indexed by activity slot.
   Watch lists, the trail and the analysis buffers are int-only vectors
   of clause references / literals; values are read from a per-literal
   array ([vals.(l)] is 1 when l is true, -1 when false, 0 when
   unassigned), and the VSIDS heap reads [var_act] directly.

   The comments flag the invariants that are easy to break:
   - a clause's watched literals are literals 0 and 1; the clause is
     registered in watches.(negate lit0) and watches.(negate lit1);
   - when a clause is the reason of an assignment, the asserted literal is
     literal 0, and the clause is locked: [reduce_db] never removes it, so
     every reason points at a live clause;
   - a removed clause keeps its words (and its watchers, dropped lazily by
     [propagate]) until [compact] runs; [compact] slides the live clauses
     down in arena order, rewrites every watch list in place keeping its
     order, and remaps the reasons and the learnt list, so it never
     changes the search.

   The storage must never change the search: the same clause stream makes
   the same decisions, conflicts, learnt clauses, models and
   failed-assumption cores, as pinned by the search-identity tests in
   test/test_sat.ml. Tried and rejected:
   - blocker literals in the watchers: a stale blocker skips clause visits
     the solver otherwise makes, and each visit can move the watches, so
     the search changes;
   - binary clauses stored in the watcher as (clause, other literal)
     pairs: exact, but ~7% slower on perfbench's minimize workload in a
     prototype of this arena;
   - a plain [int array] arena grown by copying: the minimize workload's
     peak RSS rose from 14-15 to 19-21 MiB, because dead copies wait for
     the next major GC cycle; the GC accounts for a Bigarray's off-heap
     size and frees an old arena promptly. *)

type result = Sat | Unsat | Unknown

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnt_clauses : int;
  peak_learnts : int;
  props_per_s : float;
}

(* Growable int vectors (MiniSat's vec<int>): the trail, watch lists, the
   learnt list and the analysis buffers. Monomorphic, so a store is a
   plain word write with no write barrier. Defined here, not in a module
   of its own, because dune's default profile compiles with -opaque,
   which keeps another module's functions from being inlined into the
   propagation and analysis loops. *)
module Vec = struct
  type t = { mutable data : int array; mutable size : int }

  let create () = { data = [||]; size = 0 }
  let[@inline] size t = t.size
  let is_empty t = t.size = 0

  let[@inline] get t i =
    if i >= t.size then invalid_arg "Vec.get";
    t.data.(i)

  let[@inline] set t i x =
    if i >= t.size then invalid_arg "Vec.set";
    t.data.(i) <- x

  let grow t =
    let data = Array.make (max 8 (2 * t.size)) 0 in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data

  let[@inline] push t x =
    if t.size = Array.length t.data then grow t;
    t.data.(t.size) <- x;
    t.size <- t.size + 1

  let pop t =
    if t.size = 0 then invalid_arg "Vec.pop";
    t.size <- t.size - 1;
    t.data.(t.size)

  let shrink t n =
    if n < 0 || n > t.size then invalid_arg "Vec.shrink";
    t.size <- n

  let clear t = t.size <- 0

  (* [Array.sort], so the permutation depends only on the comparisons. *)
  let sort cmp t =
    let live = Array.sub t.data 0 t.size in
    Array.sort cmp live;
    Array.blit live 0 t.data 0 t.size
end

(* [Lit.var] and [Lit.negate], restated to be inlined (see [Vec]). *)
let lit_var l = l lsr 1
let lit_neg l = l lxor 1

type arena = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let learnt_flag = 1
let removed_flag = 2
let header_words = 2
let slot_shift = 31
let lbd_mask = (1 lsl slot_shift) - 1
let no_reason = -1

(* An all-float record is stored flat, so bumping these never allocates. *)
type increments = { mutable var_inc : float; mutable cla_inc : float }

type t = {
  mutable nvars : int;
  mutable vals : int array; (* per literal *)
  mutable level : int array;
  mutable reason : int array; (* clause reference, or no_reason *)
  mutable var_act : float array;
  mutable phase : bool array;
  mutable seen : bool array;
  heap : Heap.t;
  mutable arena : arena;
  mutable arena_top : int; (* words in use *)
  mutable arena_dead : int; (* words of removed clauses *)
  mutable num_clauses : int;
  learnts : Vec.t;
  mutable cla_act : float array; (* by activity slot *)
  mutable next_slot : int;
  free_slots : Vec.t;
  mutable watches : Vec.t array;
  trail : Vec.t;
  trail_lim : Vec.t;
  mutable qhead : int;
  inc : increments;
  var_decay : float;
  cla_decay : float;
  mutable ok : bool;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable max_learnts : float;
  mutable model : int array; (* copy of vals at last Sat *)
  mutable has_model : bool;
  (* analysis buffers, reused across conflicts *)
  lits_buf : Vec.t; (* the clause being learnt, or added *)
  to_clear : Vec.t;
  stack : Vec.t;
  undo : Vec.t;
  mutable level_stamp : int array; (* LBD counting, by decision level *)
  mutable stamp : int;
  mutable peak_learnts : int;
  mutable solve_time_s : float;
  mutable failed : int list; (* failed assumptions of the last Unsat *)
}

let new_arena words = Bigarray.Array1.create Bigarray.int Bigarray.c_layout words

let create () =
  {
    nvars = 0;
    vals = [||];
    level = [||];
    reason = [||];
    var_act = [||];
    phase = [||];
    seen = [||];
    heap = Heap.create ();
    arena = new_arena 1024;
    arena_top = 0;
    arena_dead = 0;
    num_clauses = 0;
    learnts = Vec.create ();
    cla_act = [||];
    next_slot = 0;
    free_slots = Vec.create ();
    watches = [||];
    trail = Vec.create ();
    trail_lim = Vec.create ();
    qhead = 0;
    inc = { var_inc = 1.0; cla_inc = 1.0 };
    var_decay = 0.95;
    cla_decay = 0.999;
    ok = true;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    max_learnts = 0.;
    model = [||];
    has_model = false;
    lits_buf = Vec.create ();
    to_clear = Vec.create ();
    stack = Vec.create ();
    undo = Vec.create ();
    level_stamp = [||];
    stamp = 0;
    peak_learnts = 0;
    solve_time_s = 0.;
    failed = [];
  }

let nvars t = t.nvars
let nclauses t = t.num_clauses
let ok t = t.ok

let grow_arrays t cap =
  let grow_int a n = Array.append a (Array.make (n - Array.length a) 0) in
  let grow_bool a = Array.append a (Array.make (cap - Array.length a) false) in
  let grow_float a = Array.append a (Array.make (cap - Array.length a) 0.) in
  t.vals <- grow_int t.vals (2 * cap);
  t.level <- grow_int t.level cap;
  t.reason <- Array.append t.reason (Array.make (cap - Array.length t.reason) no_reason);
  t.var_act <- grow_float t.var_act;
  t.phase <- Array.append t.phase (Array.make (cap - Array.length t.phase) false);
  t.seen <- grow_bool t.seen;
  let w = Array.init (2 * cap) (fun i ->
      if i < Array.length t.watches then t.watches.(i)
      else Vec.create ())
  in
  t.watches <- w

let new_var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  if v >= Array.length t.level then
    grow_arrays t (max 16 (2 * Array.length t.level + 1));
  Heap.insert t.heap t.var_act v;
  v

let new_vars t k =
  if k <= 0 then invalid_arg "Solver.new_vars";
  let first = new_var t in
  for _ = 2 to k do
    ignore (new_var t)
  done;
  first

(* --- assignment primitives --------------------------------------------- *)

let value_lit t l = t.vals.(l)

let decision_level t = Vec.size t.trail_lim

let enqueue t l reason =
  let v = lit_var l in
  t.vals.(l) <- 1;
  t.vals.(lit_neg l) <- -1;
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  Vec.push t.trail l

let new_decision_level t = Vec.push t.trail_lim (Vec.size t.trail)

let cancel_until t target =
  if decision_level t > target then begin
    let bound = Vec.get t.trail_lim target in
    for i = Vec.size t.trail - 1 downto bound do
      let l = Vec.get t.trail i in
      let v = lit_var l in
      t.vals.(l) <- 0;
      t.vals.(lit_neg l) <- 0;
      t.phase.(v) <- not (Lit.sign l);
      t.reason.(v) <- no_reason;
      if not (Heap.in_heap t.heap v) then Heap.insert t.heap t.var_act v
    done;
    Vec.shrink t.trail bound;
    Vec.shrink t.trail_lim target;
    t.qhead <- bound
  end

(* --- clause arena --------------------------------------------------------- *)

let clause_size t c = header_words + (t.arena.{c} lsr 2)
let lit t c i = t.arena.{c + header_words + i}
let lbd_of t c = t.arena.{c + 1} land lbd_mask
let slot_of t c = t.arena.{c + 1} lsr slot_shift

let alloc_clause t lits ~lbd_word ~flags =
  let len = Vec.size lits in
  if len > lbd_mask then invalid_arg "Solver: clause too long";
  let need = t.arena_top + header_words + len in
  let cap = Bigarray.Array1.dim t.arena in
  if need > cap then begin
    let arena = new_arena (max need (2 * cap)) in
    let used = Bigarray.Array1.sub t.arena 0 t.arena_top in
    Bigarray.Array1.blit used (Bigarray.Array1.sub arena 0 t.arena_top);
    t.arena <- arena
  end;
  let c = t.arena_top in
  let a = t.arena in
  a.{c} <- (len lsl 2) lor flags;
  a.{c + 1} <- lbd_word;
  for i = 0 to len - 1 do
    a.{c + header_words + i} <- Vec.get lits i
  done;
  t.arena_top <- need;
  c

let alloc_slot t =
  if not (Vec.is_empty t.free_slots) then Vec.pop t.free_slots
  else begin
    let s = t.next_slot in
    t.next_slot <- s + 1;
    if s >= Array.length t.cla_act then begin
      let act = Array.make (max 64 (2 * s)) 0. in
      Array.blit t.cla_act 0 act 0 s;
      t.cla_act <- act
    end;
    s
  end

let remove_clause t c =
  t.arena.{c} <- t.arena.{c} lor removed_flag;
  t.arena_dead <- t.arena_dead + clause_size t c;
  Vec.push t.free_slots (slot_of t c)

(* Reclaim removed clauses in place. Pass 1 stores each live clause's new
   offset in its LBD word (saving the word in [saved]); pass 2 rewrites
   every reference through those forwarding words, dropping watchers of
   removed clauses without reordering the rest; pass 3 slides the live
   clauses down in arena order (destinations never pass sources) and
   restores their LBD words. *)
let compact t =
  let a = t.arena in
  let saved = Vec.create () in
  let dst = ref 0 and c = ref 0 in
  while !c < t.arena_top do
    let size = clause_size t !c in
    if a.{!c} land removed_flag = 0 then begin
      Vec.push saved a.{!c + 1};
      a.{!c + 1} <- !dst;
      dst := !dst + size
    end;
    c := !c + size
  done;
  let live c = a.{c} land removed_flag = 0 in
  Array.iter
    (fun ws ->
      let j = ref 0 in
      for i = 0 to Vec.size ws - 1 do
        let c = Vec.get ws i in
        if live c then begin
          Vec.set ws !j a.{c + 1};
          incr j
        end
      done;
      Vec.shrink ws !j)
    t.watches;
  for i = 0 to Vec.size t.trail - 1 do
    let v = lit_var (Vec.get t.trail i) in
    let r = t.reason.(v) in
    if r <> no_reason then begin
      assert (live r);
      t.reason.(v) <- a.{r + 1}
    end
  done;
  for i = 0 to Vec.size t.learnts - 1 do
    Vec.set t.learnts i a.{Vec.get t.learnts i + 1}
  done;
  let k = ref 0 in
  c := 0;
  while !c < t.arena_top do
    let h = a.{!c} in
    let size = header_words + (h lsr 2) in
    if h land removed_flag = 0 then begin
      let d = a.{!c + 1} in
      a.{d} <- h;
      a.{d + 1} <- Vec.get saved !k;
      incr k;
      for i = header_words to size - 1 do
        a.{d + i} <- a.{!c + i}
      done
    end;
    c := !c + size
  done;
  t.arena_top <- !dst;
  t.arena_dead <- 0

(* --- clause attachment -------------------------------------------------- *)

let attach t c =
  Vec.push t.watches.(lit_neg (lit t c 0)) c;
  Vec.push t.watches.(lit_neg (lit t c 1)) c

let add_clause_a t lits =
  if t.ok then begin
    (* Root-level simplification: drop false literals, detect tautologies
       and duplicates. Callers only add clauses at decision level 0. *)
    let lits = Array.copy lits in
    Array.sort compare lits;
    let keep = ref [] in
    let taut = ref false in
    Array.iter
      (fun l ->
        if lit_var l >= t.nvars then invalid_arg "Solver.add_clause: unknown var";
        match !keep with
        | prev :: _ when prev = l -> ()
        | prev :: _ when prev = lit_neg l -> taut := true
        | _ -> if value_lit t l <> -1 || t.level.(lit_var l) > 0 then keep := l :: !keep)
      lits;
    let sat_already =
      List.exists (fun l -> value_lit t l = 1 && t.level.(lit_var l) = 0) !keep
    in
    if not (!taut || sat_already) then begin
      match !keep with
      | [] -> t.ok <- false
      | [ l ] ->
        if value_lit t l = 0 then enqueue t l no_reason
        else if value_lit t l = -1 then t.ok <- false
      | l ->
        let buf = t.lits_buf in
        Vec.clear buf;
        List.iter (Vec.push buf) l;
        let c = alloc_clause t buf ~lbd_word:0 ~flags:0 in
        t.num_clauses <- t.num_clauses + 1;
        attach t c
    end
  end

let add_clause t lits = add_clause_a t (Array.of_list lits)

(* --- propagation --------------------------------------------------------- *)

let propagate t =
  let a = t.arena in
  let vals = t.vals in
  let conflict = ref no_reason in
  while !conflict = no_reason && t.qhead < Vec.size t.trail do
    let p = Vec.get t.trail t.qhead in
    t.qhead <- t.qhead + 1;
    t.propagations <- t.propagations + 1;
    let not_p = lit_neg p in
    let ws = t.watches.(p) in
    let n = Vec.size ws in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let c = Vec.get ws !i in
      incr i;
      let h = a.{c} in
      if h land removed_flag = 0 then begin
        let l0 = c + header_words in
        (* ensure the false literal (¬p) sits at literal 1 *)
        if a.{l0} = not_p then begin
          a.{l0} <- a.{l0 + 1};
          a.{l0 + 1} <- not_p
        end;
        let first = a.{l0} in
        if vals.(first) = 1 then begin
          Vec.set ws !j c;
          incr j
        end
        else begin
          let stop = l0 + (h lsr 2) in
          let k = ref (l0 + 2) in
          while !k < stop && vals.(a.{!k}) = -1 do
            incr k
          done;
          if !k < stop then begin
            (* new watch found: move it to literal 1 *)
            let w = a.{!k} in
            a.{l0 + 1} <- w;
            a.{!k} <- not_p;
            Vec.push t.watches.(lit_neg w) c
          end
          else begin
            Vec.set ws !j c;
            incr j;
            if vals.(first) = -1 then begin
              (* conflict: keep the remaining watchers, stop *)
              conflict := c;
              t.qhead <- Vec.size t.trail;
              while !i < n do
                Vec.set ws !j (Vec.get ws !i);
                incr i;
                incr j
              done
            end
            else enqueue t first c
          end
        end
      end
    done;
    Vec.shrink ws !j
  done;
  !conflict

(* --- activities ---------------------------------------------------------- *)

let var_bump t v =
  t.var_act.(v) <- t.var_act.(v) +. t.inc.var_inc;
  if t.var_act.(v) > 1e100 then begin
    for i = 0 to t.nvars - 1 do
      t.var_act.(i) <- t.var_act.(i) *. 1e-100
    done;
    t.inc.var_inc <- t.inc.var_inc *. 1e-100
  end;
  Heap.notify_increased t.heap t.var_act v

let var_decay_activity t = t.inc.var_inc <- t.inc.var_inc /. t.var_decay

let cla_bump t c =
  let s = slot_of t c in
  t.cla_act.(s) <- t.cla_act.(s) +. t.inc.cla_inc;
  if t.cla_act.(s) > 1e20 then begin
    for i = 0 to Vec.size t.learnts - 1 do
      let s = slot_of t (Vec.get t.learnts i) in
      t.cla_act.(s) <- t.cla_act.(s) *. 1e-20
    done;
    t.inc.cla_inc <- t.inc.cla_inc *. 1e-20
  end

let cla_decay_activity t = t.inc.cla_inc <- t.inc.cla_inc /. t.cla_decay

(* --- conflict analysis --------------------------------------------------- *)

(* MiniSat's abstraction of a decision level: one bit of a word. *)
let abstract_level t v = 1 lsl (t.level.(v) land 31)

(* Recursive redundancy check (self-subsumption through reasons): a
   literal is redundant when every path through its reason graph ends in a
   literal already in the learnt clause or at level 0. [abstract] is the
   union of the abstract levels of the clause's tail; a reason literal
   whose level is not in it fails at once. That pruning never changes the
   answer: a propagated literal's reason always holds a literal of its own
   level, so a walk that leaves the clause's levels can only end at that
   level's decision, which fails. *)
let lit_redundant t l abstract =
  let a = t.arena in
  let stack = t.stack and undo = t.undo in
  Vec.clear stack;
  Vec.clear undo;
  Vec.push stack l;
  let ok = ref true in
  while !ok && not (Vec.is_empty stack) do
    let c = t.reason.(lit_var (Vec.pop stack)) in
    if c = no_reason then ok := false
    else begin
      let stop = c + clause_size t c in
      let k = ref (c + header_words + 1) in
      while !ok && !k < stop do
        let q = a.{!k} in
        let v = lit_var q in
        if (not t.seen.(v)) && t.level.(v) > 0 then
          if t.reason.(v) <> no_reason && abstract_level t v land abstract <> 0
          then begin
            t.seen.(v) <- true;
            Vec.push undo v;
            Vec.push stack q
          end
          else ok := false;
        incr k
      done
    end
  done;
  for i = 0 to Vec.size undo - 1 do
    let v = Vec.get undo i in
    if !ok then Vec.push t.to_clear v else t.seen.(v) <- false
  done;
  !ok

(* First-UIP analysis into [t.lits_buf] (asserting literal first, the
   highest-level tail literal second); returns the backtrack level and
   the clause's LBD. *)
let analyze t confl =
  let a = t.arena in
  let out = t.lits_buf in
  Vec.clear out;
  Vec.push out (-1); (* slot for the asserting literal *)
  let path_c = ref 0 in
  let p = ref (-1) in
  let index = ref (Vec.size t.trail - 1) in
  let confl = ref confl in
  let continue = ref true in
  while !continue do
    let c = !confl in
    if a.{c} land learnt_flag <> 0 then cla_bump t c;
    let start = if !p = -1 then 0 else 1 in
    for j = start to (a.{c} lsr 2) - 1 do
      let q = a.{c + header_words + j} in
      let v = lit_var q in
      if (not t.seen.(v)) && t.level.(v) > 0 then begin
        var_bump t v;
        t.seen.(v) <- true;
        if t.level.(v) >= decision_level t then incr path_c
        else Vec.push out q
      end
    done;
    (* walk the trail back to the next marked literal *)
    while not t.seen.(lit_var (Vec.get t.trail !index)) do
      decr index
    done;
    p := Vec.get t.trail !index;
    decr index;
    confl := t.reason.(lit_var !p);
    t.seen.(lit_var !p) <- false;
    decr path_c;
    if !path_c = 0 then continue := false
  done;
  Vec.set out 0 (lit_neg !p);
  (* record marked vars for cleanup *)
  for i = 0 to Vec.size out - 1 do
    Vec.push t.to_clear (lit_var (Vec.get out i))
  done;
  (* minimize: drop redundant literals from the tail, keeping the order *)
  let abstract = ref 0 in
  for i = 1 to Vec.size out - 1 do
    abstract := !abstract lor abstract_level t (lit_var (Vec.get out i))
  done;
  let kept = ref 1 in
  for i = 1 to Vec.size out - 1 do
    let l = Vec.get out i in
    if t.reason.(lit_var l) = no_reason || not (lit_redundant t l !abstract) then begin
      Vec.set out !kept l;
      incr kept
    end
  done;
  Vec.shrink out !kept;
  for i = 0 to Vec.size t.to_clear - 1 do
    t.seen.(Vec.get t.to_clear i) <- false
  done;
  Vec.clear t.to_clear;
  (* compute backtrack level; move the highest-level tail literal to slot 1 *)
  let bt_level = ref 0 in
  if Vec.size out > 1 then begin
    let max_i = ref 1 in
    for i = 2 to Vec.size out - 1 do
      if t.level.(lit_var (Vec.get out i)) > t.level.(lit_var (Vec.get out !max_i))
      then max_i := i
    done;
    let tmp = Vec.get out 1 in
    Vec.set out 1 (Vec.get out !max_i);
    Vec.set out !max_i tmp;
    bt_level := t.level.(lit_var (Vec.get out 1))
  end;
  (* LBD = number of distinct decision levels, counted by stamping each
     level once. Assumption pseudo-levels count like any other:
     discounting them (tried) floods the [reduce_db] glue bucket — any
     clause spanning two real levels plus assumption literals is kept
     forever — and measurably bloats the learnt DB on assumption-ladder
     sweeps. *)
  if decision_level t >= Array.length t.level_stamp then
    t.level_stamp <- Array.make (2 * (decision_level t + 1)) 0;
  t.stamp <- t.stamp + 1;
  let lbd = ref 0 in
  for i = 0 to Vec.size out - 1 do
    let lv = t.level.(lit_var (Vec.get out i)) in
    if t.level_stamp.(lv) <> t.stamp then begin
      t.level_stamp.(lv) <- t.stamp;
      incr lbd
    end
  done;
  (!bt_level, !lbd)

let record_learnt t lbd =
  let lits = t.lits_buf in
  if Vec.size lits = 1 then enqueue t (Vec.get lits 0) no_reason
  else begin
    let slot = alloc_slot t in
    t.cla_act.(slot) <- 0.;
    let c =
      alloc_clause t lits ~lbd_word:((slot lsl slot_shift) lor lbd) ~flags:learnt_flag
    in
    Vec.push t.learnts c;
    if Vec.size t.learnts > t.peak_learnts then t.peak_learnts <- Vec.size t.learnts;
    attach t c;
    cla_bump t c;
    enqueue t (Vec.get lits 0) c
  end

(* Which assumptions entailed the falsification of assumption [p]?
   MiniSat's analyzeFinal: walk the implication graph backwards from ¬p,
   collecting the pseudo-decisions (no reason) it hangs on. This only
   runs while [decision_level t <= number of assumptions], so every decision
   on the trail is itself an assumption. Level-0 antecedents are root facts
   and are skipped: an empty tail means ¬p is a root consequence and the
   core is [p] alone. *)
let analyze_final t p =
  let core = ref [ p ] in
  if decision_level t > 0 then begin
    let marked = t.to_clear in
    let mark v =
      if not t.seen.(v) then begin
        t.seen.(v) <- true;
        Vec.push marked v
      end
    in
    mark (lit_var p);
    let bottom = Vec.get t.trail_lim 0 in
    for i = Vec.size t.trail - 1 downto bottom do
      let l = Vec.get t.trail i in
      let v = lit_var l in
      if t.seen.(v) then begin
        let c = t.reason.(v) in
        if c = no_reason then core := l :: !core
        else
          for k = 0 to (t.arena.{c} lsr 2) - 1 do
            let w = lit_var (lit t c k) in
            if t.level.(w) > 0 then mark w
          done
      end
    done;
    for i = 0 to Vec.size marked - 1 do
      t.seen.(Vec.get marked i) <- false
    done;
    Vec.clear marked
  end;
  !core

(* --- learnt DB reduction -------------------------------------------------- *)

let locked t c =
  let l = lit t c 0 in
  t.reason.(lit_var l) = c && value_lit t l = 1

let reduce_db t =
  (* Glucose-flavoured: drop the worse half (high LBD, low activity), keep
     locked clauses and glue clauses (lbd <= 2). *)
  Vec.sort
    (fun a b ->
      let la = lbd_of t a and lb = lbd_of t b in
      if la <> lb then compare la lb
      else compare t.cla_act.(slot_of t b) t.cla_act.(slot_of t a))
    t.learnts;
  let keep_count = Vec.size t.learnts / 2 in
  let kept = ref 0 in
  for i = 0 to Vec.size t.learnts - 1 do
    let c = Vec.get t.learnts i in
    if i < keep_count || lbd_of t c <= 2 || locked t c then begin
      Vec.set t.learnts !kept c;
      incr kept
    end
    else remove_clause t c
  done;
  Vec.shrink t.learnts !kept;
  if 2 * t.arena_dead > t.arena_top then compact t

(* --- search --------------------------------------------------------------- *)

let pick_branch_var t =
  let rec go () =
    if Heap.is_empty t.heap then -1
    else
      let v = Heap.remove_max t.heap t.var_act in
      if value_lit t (Lit.pos v) = 0 then v else go ()
  in
  go ()

exception Found of result

let luby y x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  y ** float_of_int !seq

(* Budget checks run on both the conflict and the conflict-free paths of
   [search], amortized: [gettimeofday] is a syscall, so the deadline is
   consulted every [budget_check_iters] loop iterations (each iteration is
   one decision or one conflict) or every [budget_check_props] unit
   propagations, whichever comes first. A search can therefore overshoot
   its deadline by at most the cost of that many steps — in particular a
   conflict-free (or conflict-only) stretch can no longer run unboundedly
   past [~timeout]. *)
let budget_check_iters = 256
let budget_check_props = 20_000

let search t ~assumptions ~conflict_budget ~deadline ~global_conflicts =
  let local_conflicts = ref 0 in
  let result = ref Unknown in
  let since_check = ref 0 in
  let props_mark = ref t.propagations in
  let check_budgets () =
    since_check := 0;
    props_mark := t.propagations;
    (match deadline with
     | Some d when Unix.gettimeofday () > d -> raise (Found Unknown)
     | _ -> ());
    match global_conflicts with
    | Some g when t.conflicts >= g -> raise (Found Unknown)
    | _ -> ()
  in
  (try
     while true do
       incr since_check;
       if
         !since_check >= budget_check_iters
         || t.propagations - !props_mark >= budget_check_props
       then check_budgets ();
       let confl = propagate t in
       if confl <> no_reason then begin
         t.conflicts <- t.conflicts + 1;
         incr local_conflicts;
         if decision_level t = 0 then begin
           t.ok <- false;
           t.failed <- [];
           raise (Found Unsat)
         end;
         let bt_level, lbd = analyze t confl in
         cancel_until t bt_level;
         record_learnt t lbd;
         var_decay_activity t;
         cla_decay_activity t
       end
       else begin
         if !local_conflicts >= conflict_budget then begin
           (* Restart to level 0, not merely to the assumption prefix:
              re-enqueuing the assumptions re-propagates them against the
              clauses learnt since the last restart, strengthening the
              trail prefix every restart. Restarting onto a frozen prefix
              (tried) saves that propagation but runs the rest of the
              solve on a stale prefix and measurably slows ladder sweeps. *)
           cancel_until t 0;
           raise Exit
         end;
         if float_of_int (Vec.size t.learnts) -. float_of_int (Vec.size t.trail)
            >= t.max_learnts
         then reduce_db t;
         (* assumptions become pseudo-decisions on the first levels *)
         if decision_level t < Array.length assumptions then begin
           let p = assumptions.(decision_level t) in
           match value_lit t p with
           | 1 -> new_decision_level t
           | -1 ->
             t.failed <- analyze_final t p;
             raise (Found Unsat)
           | _ ->
             new_decision_level t;
             enqueue t p no_reason
         end
         else begin
           let v = pick_branch_var t in
           if v = -1 then begin
             (* model found *)
             t.model <- Array.copy t.vals;
             t.has_model <- true;
             raise (Found Sat)
           end;
           t.decisions <- t.decisions + 1;
           new_decision_level t;
           enqueue t (Lit.make v (not t.phase.(v))) no_reason
         end
       end
     done;
     Unknown
   with
   | Found r ->
     result := r;
     !result
   | Exit -> Unknown)

let solve ?(assumptions = []) ?max_conflicts ?timeout t =
  if not t.ok then begin
    t.failed <- [];
    Unsat
  end
  else begin
    t.has_model <- false;
    t.failed <- [];
    let t0 = Unix.gettimeofday () in
    let assumptions = Array.of_list assumptions in
    let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout in
    let base_conflicts = t.conflicts in
    let global_conflicts = Option.map (fun m -> base_conflicts + m) max_conflicts in
    t.max_learnts <-
      max 1000. (float_of_int t.num_clauses /. 3.);
    let result = ref Unknown in
    let restart = ref 0 in
    let continue = ref true in
    while !continue do
      (* Luby restarts: the conflict budget of restart i is 100 * luby(i) *)
      let budget = int_of_float (luby 2.0 !restart *. 100.) in
      t.restarts <- t.restarts + (if !restart > 0 then 1 else 0);
      match
        search t ~assumptions ~conflict_budget:budget ~deadline ~global_conflicts
      with
      | (Sat | Unsat) as r ->
        result := r;
        continue := false
      | Unknown ->
        (* restart unless a budget ran out *)
        let out_of_time =
          match deadline with Some d -> Unix.gettimeofday () > d | None -> false
        in
        let out_of_conflicts =
          match global_conflicts with Some g -> t.conflicts >= g | None -> false
        in
        if out_of_time || out_of_conflicts then begin
          result := Unknown;
          continue := false
        end
        else begin
          incr restart;
          t.max_learnts <- t.max_learnts *. 1.05
        end
    done;
    cancel_until t 0;
    t.solve_time_s <- t.solve_time_s +. (Unix.gettimeofday () -. t0);
    !result
  end

let value t l =
  if not t.has_model then invalid_arg "Solver.value: no model";
  t.model.(l) > 0

let value_var t v = value t (Lit.pos v)

let reset_phases t = Array.fill t.phase 0 (Array.length t.phase) false

let failed_assumptions t = t.failed

let stats t =
  {
    conflicts = t.conflicts;
    decisions = t.decisions;
    propagations = t.propagations;
    restarts = t.restarts;
    learnt_clauses = Vec.size t.learnts;
    peak_learnts = t.peak_learnts;
    props_per_s =
      (if t.solve_time_s > 0. then
         float_of_int t.propagations /. t.solve_time_s
       else 0.);
  }
