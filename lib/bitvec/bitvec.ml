(* Limbs hold [bits_per_limb] bits each; the top limb is kept masked so that
   [equal]/[compare]/[hash] can work limb-wise without re-masking. *)

let bits_per_limb = 62

type t = { len : int; limbs : int array }

let limb_count len = (len + bits_per_limb - 1) / bits_per_limb

(* Mask selecting the valid bits of the last limb. *)
let top_mask len =
  let r = len mod bits_per_limb in
  if r = 0 then (1 lsl bits_per_limb) - 1 else (1 lsl r) - 1

let create len =
  if len < 0 then invalid_arg "Bitvec.create";
  { len; limbs = Array.make (max 1 (limb_count len)) 0 }

let length t = t.len

let copy t = { t with limbs = Array.copy t.limbs }

let check_index t i =
  if i < 0 || i >= t.len then invalid_arg "Bitvec: index out of range"

let get t i =
  check_index t i;
  (t.limbs.(i / bits_per_limb) lsr (i mod bits_per_limb)) land 1 = 1

let set t i b =
  check_index t i;
  let w = i / bits_per_limb and o = i mod bits_per_limb in
  if b then t.limbs.(w) <- t.limbs.(w) lor (1 lsl o)
  else t.limbs.(w) <- t.limbs.(w) land lnot (1 lsl o)

let init len f =
  let t = create len in
  for i = 0 to len - 1 do
    if f i then set t i true
  done;
  t

let check_same_length a b =
  if a.len <> b.len then invalid_arg "Bitvec: length mismatch"

let lift2 op a b =
  check_same_length a b;
  let limbs = Array.make (Array.length a.limbs) 0 in
  for w = 0 to Array.length limbs - 1 do
    limbs.(w) <- op a.limbs.(w) b.limbs.(w)
  done;
  { len = a.len; limbs }

let logand a b = lift2 ( land ) a b
let logor a b = lift2 ( lor ) a b
let logxor a b = lift2 ( lxor ) a b

let mask_top t =
  if t.len > 0 then begin
    let last = Array.length t.limbs - 1 in
    t.limbs.(last) <- t.limbs.(last) land top_mask t.len
  end;
  t

let lognot a =
  let limbs = Array.map (fun w -> lnot w land ((1 lsl bits_per_limb) - 1)) a.limbs in
  mask_top { len = a.len; limbs }

let equiv a b = lognot (logxor a b)
let andnot a b = logand a (lognot b)

let equal a b = a.len = b.len && a.limbs = b.limbs

let compare a b =
  let c = Stdlib.compare a.len b.len in
  if c <> 0 then c else Stdlib.compare a.limbs b.limbs

let hash t = Hashtbl.hash (t.len, t.limbs)

let popcount_int n =
  let rec go acc n = if n = 0 then acc else go (acc + (n land 1)) (n lsr 1) in
  go 0 n

let popcount t = Array.fold_left (fun acc w -> acc + popcount_int w) 0 t.limbs

let is_zero t = Array.for_all (fun w -> w = 0) t.limbs

let is_ones t = popcount t = t.len

let of_string s =
  init (String.length s) (fun i ->
      match s.[i] with
      | '1' -> true
      | '0' -> false
      | c -> invalid_arg (Printf.sprintf "Bitvec.of_string: %C" c))

let to_string t = String.init t.len (fun i -> if get t i then '1' else '0')

let of_int len v =
  if len > bits_per_limb then invalid_arg "Bitvec.of_int: too long";
  init len (fun i -> (v lsr i) land 1 = 1)

let to_int t =
  if t.len > bits_per_limb then invalid_arg "Bitvec.to_int: too long";
  t.limbs.(0)

let iteri f t =
  for i = 0 to t.len - 1 do
    f i (get t i)
  done

let fold f acc t =
  let acc = ref acc in
  iteri (fun _ b -> acc := f !acc b) t;
  !acc
