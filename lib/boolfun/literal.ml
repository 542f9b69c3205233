type t = Const0 | Const1 | Pos of int | Neg of int

let count n = 2 + (2 * n)

let check_var n i =
  if i < 1 || i > n then invalid_arg "Literal: variable out of range"

let all n =
  let rec vars i = if i > n then [] else Neg i :: Pos i :: vars (i + 1) in
  Const0 :: Const1 :: vars 1

let to_index n = function
  | Const0 -> 0
  | Const1 -> 1
  | Neg i ->
    check_var n i;
    2 * i
  | Pos i ->
    check_var n i;
    (2 * i) + 1

let of_index n j =
  if j < 0 || j >= count n then invalid_arg "Literal.of_index";
  match j with
  | 0 -> Const0
  | 1 -> Const1
  | _ -> if j mod 2 = 0 then Neg (j / 2) else Pos (j / 2)

let table n = function
  | Const0 -> Truth_table.const n false
  | Const1 -> Truth_table.const n true
  | Pos i ->
    check_var n i;
    Truth_table.var n i
  | Neg i ->
    check_var n i;
    Truth_table.nvar n i

let eval n l q =
  match l with
  | Const0 -> false
  | Const1 -> true
  | Pos i -> Truth_table.input_bit n q i
  | Neg i -> not (Truth_table.input_bit n q i)

let negate = function
  | Const0 -> Const1
  | Const1 -> Const0
  | Pos i -> Neg i
  | Neg i -> Pos i

let equal a b =
  match a, b with
  | Const0, Const0 | Const1, Const1 -> true
  | Pos i, Pos j | Neg i, Neg j -> i = j
  | (Const0 | Const1 | Pos _ | Neg _), _ -> false

let to_string = function
  | Const0 -> "const-0"
  | Const1 -> "const-1"
  | Pos i -> Printf.sprintf "x%d" i
  | Neg i -> Printf.sprintf "~x%d" i
