module Tt = Mm_boolfun.Truth_table
module Literal = Mm_boolfun.Literal
module C = Mm_core.Circuit

type t = { n : int; perm : int array; neg : bool array; out_neg : bool }

let make ~perm ~neg ~out_neg =
  let n = Array.length perm in
  if Array.length neg <> n then invalid_arg "Npn.make: perm/neg length mismatch";
  let seen = Array.make (n + 1) false in
  Array.iter
    (fun j ->
      if j < 1 || j > n || seen.(j) then
        invalid_arg "Npn.make: perm is not a permutation of 1..n";
      seen.(j) <- true)
    perm;
  { n; perm = Array.copy perm; neg = Array.copy neg; out_neg }

let identity n =
  { n; perm = Array.init n (fun i -> i + 1); neg = Array.make n false; out_neg = false }

let inverse t =
  let perm = Array.make t.n 0 and neg = Array.make t.n false in
  for i = 0 to t.n - 1 do
    perm.(t.perm.(i) - 1) <- i + 1;
    neg.(t.perm.(i) - 1) <- t.neg.(i)
  done;
  { t with perm; neg }

let input_only t = { t with out_neg = false }
let is_input_only t = not t.out_neg

(* Source row of [f] feeding row [q] of the transformed table: variable
   x_(perm.(i)) of [f] reads y_(i+1) XOR neg.(i), and x_j occupies bit
   (n - j) of the row index (the paper's MSB-first convention). *)
let row_map t q =
  let q' = ref 0 in
  for i = 0 to t.n - 1 do
    let y = Tt.input_bit t.n q (i + 1) in
    if y <> t.neg.(i) then q' := !q' lor (1 lsl (t.n - t.perm.(i)))
  done;
  !q'

let apply t f =
  if Tt.arity f <> t.n then invalid_arg "Npn.apply: arity mismatch";
  Tt.of_fun t.n (fun q -> Tt.eval f (row_map t q) <> t.out_neg)

let rec perms = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) l)))
      l

(* Input-only transforms of arity n with their precomputed row maps,
   memoized per arity; the mutex makes first use safe from pool workers. *)
let table_mutex = Mutex.create ()
let tables : (t * int array) list option array = Array.make 5 None

let build n =
  List.concat_map
    (fun p ->
      let perm = Array.of_list p in
      List.init (1 lsl n) (fun mask ->
          let neg = Array.init n (fun i -> mask land (1 lsl i) <> 0) in
          let t = { n; perm; neg; out_neg = false } in
          (t, Array.init (1 lsl n) (row_map t))))
    (perms (List.init n (fun i -> i + 1)))

let input_transforms n =
  if n < 0 || n > 4 then invalid_arg "Npn: arity must be 0..4";
  Mutex.protect table_mutex (fun () ->
      match tables.(n) with
      | Some l -> l
      | None ->
        let l = build n in
        tables.(n) <- Some l;
        l)

let all n =
  List.concat_map
    (fun (t, _) -> [ t; { t with out_neg = true } ])
    (input_transforms n)

(* Bit-parallel image of table-as-int [v] under a precomputed row map. *)
let image ~rows v rm =
  let w = ref 0 in
  for q = 0 to rows - 1 do
    if v land (1 lsl rm.(q)) <> 0 then w := !w lor (1 lsl q)
  done;
  !w

let canon_int n v =
  let rows = 1 lsl n in
  let mask = (1 lsl rows) - 1 in
  let best = ref max_int and best_t = ref (identity n) in
  List.iter
    (fun (t, rm) ->
      let w = image ~rows v rm in
      if w < !best then (best := w; best_t := t);
      let w' = w lxor mask in
      if w' < !best then (best := w'; best_t := { t with out_neg = true }))
    (input_transforms n);
  (!best, !best_t)

let canon f =
  let n = Tt.arity f in
  if n > 4 then invalid_arg "Npn.canon: arity > 4";
  let v, t = canon_int n (Tt.to_int f) in
  (Tt.of_int n v, t)

let class_count n =
  if n < 0 || n > 4 then invalid_arg "Npn.class_count: arity must be 0..4";
  let rows = 1 lsl n in
  let mask = (1 lsl rows) - 1 in
  let total = 1 lsl rows in
  let seen = Bytes.make total '\000' in
  let tf = input_transforms n in
  let count = ref 0 in
  for v = 0 to total - 1 do
    if Bytes.get seen v = '\000' then begin
      incr count;
      (* mark the whole orbit of v, both output polarities *)
      List.iter
        (fun (_, rm) ->
          let w = image ~rows v rm in
          Bytes.set seen w '\001';
          Bytes.set seen (w lxor mask) '\001')
        tf
    end
  done;
  !count

let class_reps n =
  if n < 0 || n > 4 then invalid_arg "Npn.class_reps: arity must be 0..4";
  let rows = 1 lsl n in
  let mask = (1 lsl rows) - 1 in
  let total = 1 lsl rows in
  let seen = Bytes.make total '\000' in
  let tf = input_transforms n in
  let reps = ref [] in
  (* ascending [v]: an unseen [v] is the minimum of its orbit, i.e. the
     canonical representative [canon] would pick. *)
  for v = 0 to total - 1 do
    if Bytes.get seen v = '\000' then begin
      reps := Tt.of_int n v :: !reps;
      List.iter
        (fun (_, rm) ->
          let w = image ~rows v rm in
          Bytes.set seen w '\001';
          Bytes.set seen (w lxor mask) '\001')
        tf
    end
  done;
  List.rev !reps

let apply_circuit t c =
  if t.out_neg then
    invalid_arg
      "Npn.apply_circuit: output negation is not structurally expressible";
  if c.C.arity <> t.n then invalid_arg "Npn.apply_circuit: arity mismatch";
  (* The circuit computes h(x); we want (apply t h)(y) = h(x) with
     x_j = y_(inv.perm.(j-1)) XOR inv.neg.(j-1). *)
  let inv = inverse t in
  let map_lit = function
    | (Literal.Const0 | Literal.Const1) as l -> l
    | Literal.Pos j ->
      if inv.neg.(j - 1) then Literal.Neg inv.perm.(j - 1)
      else Literal.Pos inv.perm.(j - 1)
    | Literal.Neg j ->
      if inv.neg.(j - 1) then Literal.Pos inv.perm.(j - 1)
      else Literal.Neg inv.perm.(j - 1)
  in
  let map_src = function
    | C.From_literal l -> C.From_literal (map_lit l)
    | (C.From_leg _ | C.From_vop _ | C.From_rop _) as s -> s
  in
  C.make ~arity:c.C.arity ~rop_kind:c.C.rop_kind
    ~legs:
      (Array.map
         (Array.map (fun v -> { C.te = map_lit v.C.te; be = map_lit v.C.be }))
         c.C.legs)
    ~rops:
      (Array.map
         (fun r -> { C.in1 = map_src r.C.in1; in2 = map_src r.C.in2 })
         c.C.rops)
    ~outputs:(Array.map map_src c.C.outputs) ()

let pp ppf t =
  Format.fprintf ppf "perm=[%s] neg=[%s]%s"
    (String.concat ";" (Array.to_list (Array.map string_of_int t.perm)))
    (String.concat ";"
       (Array.to_list (Array.map (fun b -> if b then "1" else "0") t.neg)))
    (if t.out_neg then " out-neg" else "")
