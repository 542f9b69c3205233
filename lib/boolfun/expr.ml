type t =
  | Const of bool
  | Var of int
  | Not of t
  | And of t * t
  | Or of t * t
  | Xor of t * t

(* Recursive-descent parser. Tokens are single characters except variables
   [x<digits>]. Implicit AND by juxtaposition is not supported; the paper's
   product notation uses '*'. *)

type token = TConst of bool | TVar of int | TNot | TAnd | TOr | TXor | TLpar | TRpar

let tokenize s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then Ok (List.rev acc)
    else
      match s.[i] with
      | ' ' | '\t' | '\n' -> go (i + 1) acc
      | '0' -> go (i + 1) (TConst false :: acc)
      | '1' -> go (i + 1) (TConst true :: acc)
      | '~' | '!' -> go (i + 1) (TNot :: acc)
      | '&' | '*' -> go (i + 1) (TAnd :: acc)
      | '|' | '+' -> go (i + 1) (TOr :: acc)
      | '^' -> go (i + 1) (TXor :: acc)
      | '(' -> go (i + 1) (TLpar :: acc)
      | ')' -> go (i + 1) (TRpar :: acc)
      | 'x' ->
        let j = ref (i + 1) in
        while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
          incr j
        done;
        if !j = i + 1 then Error (Printf.sprintf "expected digits after 'x' at %d" i)
        else
          let v = int_of_string (String.sub s (i + 1) (!j - i - 1)) in
          if v < 1 then Error (Printf.sprintf "variable index must be >= 1 at %d" i)
          else go !j (TVar v :: acc)
      | c -> Error (Printf.sprintf "unexpected character %C at %d" c i)
  in
  go 0 []

let parse s =
  match tokenize s with
  | Error _ as e -> e
  | Ok tokens ->
    let toks = ref tokens in
    let peek () = match !toks with [] -> None | t :: _ -> Some t in
    let advance () = match !toks with [] -> () | _ :: r -> toks := r in
    let exception Parse_error of string in
    (* or_expr > xor_expr > and_expr > unary *)
    let rec or_expr () =
      let lhs = xor_expr () in
      match peek () with
      | Some TOr ->
        advance ();
        Or (lhs, or_expr ())
      | _ -> lhs
    and xor_expr () =
      let lhs = and_expr () in
      match peek () with
      | Some TXor ->
        advance ();
        Xor (lhs, xor_expr ())
      | _ -> lhs
    and and_expr () =
      let lhs = unary () in
      match peek () with
      | Some TAnd ->
        advance ();
        And (lhs, and_expr ())
      | _ -> lhs
    and unary () =
      match peek () with
      | Some TNot ->
        advance ();
        Not (unary ())
      | Some (TConst b) ->
        advance ();
        Const b
      | Some (TVar v) ->
        advance ();
        Var v
      | Some TLpar ->
        advance ();
        let e = or_expr () in
        (match peek () with
         | Some TRpar ->
           advance ();
           e
         | _ -> raise (Parse_error "missing closing parenthesis"))
      | Some (TAnd | TOr | TXor | TRpar) | None ->
        raise (Parse_error "expected a term")
    in
    (try
       let e = or_expr () in
       match !toks with
       | [] -> Ok e
       | _ -> Error "trailing tokens after expression"
     with Parse_error msg -> Error msg)

let parse_exn s =
  match parse s with
  | Ok e -> e
  | Error msg -> invalid_arg ("Expr.parse: " ^ msg)

let rec max_var = function
  | Const _ -> 0
  | Var v -> v
  | Not e -> max_var e
  | And (a, b) | Or (a, b) | Xor (a, b) -> max (max_var a) (max_var b)

let rec eval e ~n ~row =
  match e with
  | Const b -> b
  | Var v -> Truth_table.input_bit n row v
  | Not a -> not (eval a ~n ~row)
  | And (a, b) -> eval a ~n ~row && eval b ~n ~row
  | Or (a, b) -> eval a ~n ~row || eval b ~n ~row
  | Xor (a, b) -> eval a ~n ~row <> eval b ~n ~row

let table ?n e =
  let n = match n with Some n -> n | None -> max_var e in
  Truth_table.of_fun n (fun row -> eval e ~n ~row)

let spec ~name ?n exprs =
  if exprs = [] then invalid_arg "Expr.spec: no outputs";
  let n =
    match n with
    | Some n -> n
    | None -> List.fold_left (fun m e -> max m (max_var e)) 1 exprs
  in
  Spec.make ~name (Array.of_list (List.map (fun e -> table ~n e) exprs))

let rec to_string = function
  | Const b -> if b then "1" else "0"
  | Var v -> Printf.sprintf "x%d" v
  | Not e -> "~" ^ atom e
  | And (a, b) -> Printf.sprintf "%s & %s" (atom a) (atom b)
  | Or (a, b) -> Printf.sprintf "%s | %s" (atom a) (atom b)
  | Xor (a, b) -> Printf.sprintf "%s ^ %s" (atom a) (atom b)

and atom e =
  match e with
  | Const _ | Var _ | Not _ -> to_string e
  | And _ | Or _ | Xor _ -> "(" ^ to_string e ^ ")"
