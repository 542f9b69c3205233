type problem = { num_vars : int; clauses : int list list }

let parse_string s =
  let lines = String.split_on_char '\n' s in
  let num_vars = ref (-1) in
  let clauses = ref [] in
  let current = ref [] in
  let error = ref None in
  List.iter
    (fun line ->
      if !error = None then
        let line = String.trim line in
        if line = "" || line.[0] = 'c' then ()
        else if line.[0] = 'p' then begin
          match String.split_on_char ' ' line |> List.filter (( <> ) "") with
          | [ "p"; "cnf"; nv; _nc ] -> (
            match int_of_string_opt nv with
            | Some nv -> num_vars := nv
            | None -> error := Some "bad p line")
          | _ -> error := Some "bad p line"
        end
        else
          String.split_on_char ' ' line
          |> List.filter (( <> ) "")
          |> List.iter (fun tok ->
                 match int_of_string_opt tok with
                 | None -> error := Some (Printf.sprintf "bad token %S" tok)
                 | Some 0 ->
                   clauses := List.rev !current :: !clauses;
                   current := []
                 | Some d -> current := d :: !current))
    lines;
  match !error with
  | Some e -> Error e
  | None ->
    if !current <> [] then clauses := List.rev !current :: !clauses;
    let max_var =
      List.fold_left
        (fun acc c -> List.fold_left (fun acc d -> max acc (abs d)) acc c)
        0 !clauses
    in
    let num_vars = if !num_vars >= 0 then max !num_vars max_var else max_var in
    Ok { num_vars; clauses = List.rev !clauses }

let to_string p =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" p.num_vars (List.length p.clauses));
  List.iter
    (fun c ->
      List.iter (fun d -> Buffer.add_string buf (string_of_int d ^ " ")) c;
      Buffer.add_string buf "0\n")
    p.clauses;
  Buffer.contents buf

let load solver p =
  while Solver.nvars solver < p.num_vars do
    ignore (Solver.new_var solver)
  done;
  List.iter
    (fun c -> Solver.add_clause solver (List.map Lit.of_dimacs c))
    p.clauses
