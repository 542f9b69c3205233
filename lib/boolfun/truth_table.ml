module Bitvec = Mm_bitvec.Bitvec

type t = { arity : int; bits : Bitvec.t }

let arity t = t.arity
let rows t = 1 lsl t.arity

let make arity bits =
  assert (Bitvec.length bits = 1 lsl arity);
  { arity; bits }

let of_fun n f =
  if n < 0 || n > 24 then invalid_arg "Truth_table.of_fun: bad arity";
  make n (Bitvec.init (1 lsl n) f)

let const n b = of_fun n (fun _ -> b)

let input_bit n q i =
  if i < 1 || i > n then invalid_arg "Truth_table.input_bit";
  (q lsr (n - i)) land 1 = 1

let var n i = of_fun n (fun q -> input_bit n q i)
let nvar n i = of_fun n (fun q -> not (input_bit n q i))

let of_string n s =
  if String.length s <> 1 lsl n then
    invalid_arg "Truth_table.of_string: wrong length";
  make n (Bitvec.of_string s)

let to_string t = Bitvec.to_string t.bits

let of_int n v =
  if n > 4 then invalid_arg "Truth_table.of_int: arity > 4";
  make n (Bitvec.of_int (1 lsl n) v)

let to_int t =
  if t.arity > 4 then invalid_arg "Truth_table.to_int: arity > 4";
  Bitvec.to_int t.bits

let eval t q = Bitvec.get t.bits q

let lift2 op a b =
  if a.arity <> b.arity then invalid_arg "Truth_table: arity mismatch";
  make a.arity (op a.bits b.bits)

let lnot t = make t.arity (Bitvec.lognot t.bits)
let ( &&& ) a b = lift2 Bitvec.logand a b
let ( ||| ) a b = lift2 Bitvec.logor a b
let ( ^^^ ) a b = lift2 Bitvec.logxor a b
let nor a b = lnot (a ||| b)
let nand a b = lnot (a &&& b)
let imply a b = lnot a ||| b
let nimp a b = a &&& lnot b

let equal a b = a.arity = b.arity && Bitvec.equal a.bits b.bits

let compare a b =
  let c = Stdlib.compare a.arity b.arity in
  if c <> 0 then c else Bitvec.compare a.bits b.bits

let hash t = Bitvec.hash t.bits
let popcount t = Bitvec.popcount t.bits
let is_const t = Bitvec.is_zero t.bits || Bitvec.is_ones t.bits

let cofactor t i b =
  of_fun t.arity (fun q ->
      let mask = 1 lsl (t.arity - i) in
      let q' = if b then q lor mask else q land Stdlib.lnot mask in
      eval t q')

let depends_on t i = not (equal (cofactor t i true) (cofactor t i false))

let support t =
  List.filter (depends_on t) (List.init t.arity (fun i -> i + 1))

let project t vars =
  let n = t.arity in
  let k = List.length vars in
  List.iteri
    (fun _ v -> if v < 1 || v > n then invalid_arg "Truth_table.project")
    vars;
  List.iter
    (fun v ->
      if depends_on t v && not (List.mem v vars) then
        invalid_arg "Truth_table.project: support not covered")
    (support t);
  let vars = Array.of_list vars in
  of_fun k (fun q' ->
      (* place bit i of q' (variable y_(i+1)) at original variable vars.(i) *)
      let q = ref 0 in
      Array.iteri
        (fun i v ->
          if (q' lsr (k - 1 - i)) land 1 = 1 then q := !q lor (1 lsl (n - v)))
        vars;
      eval t !q)

let pp ppf t = Format.fprintf ppf "%s" (to_string t)
