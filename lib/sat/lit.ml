type t = int

let make v negated =
  if v < 0 then invalid_arg "Lit.make";
  (2 * v) + if negated then 1 else 0

let pos v = make v false
let neg_of v = make v true
let var l = l lsr 1
let sign l = l land 1 = 1
let negate l = l lxor 1
let to_dimacs l = if sign l then -(var l + 1) else var l + 1

let of_dimacs d =
  if d = 0 then invalid_arg "Lit.of_dimacs: zero";
  if d > 0 then pos (d - 1) else neg_of (-d - 1)
