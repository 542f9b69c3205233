module Circuit = Mm_core.Circuit
module Emit = Mm_core.Emit
module Rop = Mm_core.Rop
module Literal = Mm_boolfun.Literal
module Tt = Mm_boolfun.Truth_table
module Spec = Mm_boolfun.Spec
module Json = Mm_report.Json

let circuit_to_json = Emit.json

let ( let* ) r f = Result.bind r f

let field conv name j =
  match Json.get conv name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "artifact: missing or malformed %S" name)

let literal_of_string s =
  match s with
  | "const-0" -> Ok Literal.Const0
  | "const-1" -> Ok Literal.Const1
  | _ ->
    let neg = String.length s > 0 && s.[0] = '~' in
    let body = if neg then String.sub s 1 (String.length s - 1) else s in
    if String.length body >= 2 && body.[0] = 'x' then
      match int_of_string_opt (String.sub body 1 (String.length body - 1)) with
      | Some i when i >= 1 ->
        Ok (if neg then Literal.Neg i else Literal.Pos i)
      | _ -> Error (Printf.sprintf "artifact: bad literal %S" s)
    else Error (Printf.sprintf "artifact: bad literal %S" s)

let source_of_json j =
  let* kind = field Json.to_str "kind" j in
  match kind with
  | "literal" ->
    let* name = field Json.to_str "name" j in
    let* l = literal_of_string name in
    Ok (Circuit.From_literal l)
  | "leg" ->
    let* i = field Json.to_int "index" j in
    Ok (Circuit.From_leg i)
  | "vop" ->
    let* l = field Json.to_int "leg" j in
    let* s = field Json.to_int "step" j in
    Ok (Circuit.From_vop (l, s))
  | "rop" ->
    let* i = field Json.to_int "index" j in
    Ok (Circuit.From_rop i)
  | k -> Error (Printf.sprintf "artifact: unknown source kind %S" k)

let rec map_m f = function
  | [] -> Ok []
  | x :: xs ->
    let* y = f x in
    let* ys = map_m f xs in
    Ok (y :: ys)

let circuit_of_json (j : Json.t) : (Circuit.t, string) result =
  let* arity = field Json.to_int "arity" j in
  let* kind_s = field Json.to_str "rop_kind" j in
  let* rop_kind =
    match kind_s with
    | "NOR" -> Ok Rop.Nor
    | "NIMP" -> Ok Rop.Nimp
    | k -> Error (Printf.sprintf "artifact: unknown rop_kind %S" k)
  in
  let* legs_j = field Json.to_list "legs" j in
  let* legs =
    map_m
      (fun leg_j ->
        match Json.to_list leg_j with
        | None -> Error "artifact: leg is not a list"
        | Some ops ->
          let* vops =
            map_m
              (fun op ->
                let* te_s = field Json.to_str "te" op in
                let* be_s = field Json.to_str "be" op in
                let* te = literal_of_string te_s in
                let* be = literal_of_string be_s in
                Ok { Circuit.te; be })
              ops
          in
          Ok (Array.of_list vops))
      legs_j
  in
  let* rops_j = field Json.to_list "rops" j in
  let* rops =
    map_m
      (fun r ->
        let* in1 =
          match Json.member "in1" r with
          | Some s -> source_of_json s
          | None -> Error "artifact: rop missing in1"
        in
        let* in2 =
          match Json.member "in2" r with
          | Some s -> source_of_json s
          | None -> Error "artifact: rop missing in2"
        in
        Ok { Circuit.in1; in2 })
      rops_j
  in
  let* outputs_j = field Json.to_list "outputs" j in
  let* outputs = map_m source_of_json outputs_j in
  match
    Circuit.make ~arity ~rop_kind
      ~legs:(Array.of_list legs)
      ~rops:(Array.of_list rops)
      ~outputs:(Array.of_list outputs) ()
  with
  | c -> Ok c
  | exception Invalid_argument msg -> Error ("artifact: invalid circuit: " ^ msg)

let spec_to_json (spec : Spec.t) : Json.t =
  Json.Obj
    [
      ("name", Json.String (Spec.name spec));
      ("arity", Json.Int (Spec.arity spec));
      ( "tables",
        Json.List
          (Array.to_list
             (Array.map (fun tt -> Json.String (Tt.to_string tt))
                (Spec.outputs spec))) );
    ]

let spec_of_json (j : Json.t) : (Spec.t, string) result =
  let* name = field Json.to_str "name" j in
  let* arity = field Json.to_int "arity" j in
  let* tables_j = field Json.to_list "tables" j in
  let* tables =
    map_m
      (fun t ->
        match Json.to_str t with
        | None -> Error "artifact: table is not a string"
        | Some s -> (
          match Tt.of_string arity s with
          | tt -> Ok tt
          | exception Invalid_argument msg ->
            Error ("artifact: bad table: " ^ msg)
          | exception Failure msg -> Error ("artifact: bad table: " ^ msg)))
      tables_j
  in
  if tables = [] then Error "artifact: spec has no tables"
  else Ok (Spec.make ~name (Array.of_list tables))
