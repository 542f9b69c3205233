type row = { cycle : int; label : string; cells : Line_array.cell_obs array }

(* Cycles are kept compact (drive + the cells it drove) over one copy of
   every cell's resistance when recording began; the per-cell
   observations of [row] are only built when a row is asked for. *)
type t = {
  base : Float.Array.t;
  mutable rev_cycles : (string * Line_array.cycle) list;
  mutable length : int;
}

let create arr = { base = Line_array.resistances arr; rev_cycles = []; length = 0 }

let record t ~label c =
  t.rev_cycles <- (label, c) :: t.rev_cycles;
  t.length <- t.length + 1

let rows t =
  let rs = Float.Array.copy t.base in
  let _, rev_rows =
    List.fold_left
      (fun (i, acc) (label, (c : Line_array.cycle)) ->
        Line_array.update rs c;
        (i + 1, { cycle = i; label; cells = Line_array.observe c.drive rs } :: acc))
      (1, []) (List.rev t.rev_cycles)
  in
  List.rev rev_rows

let length t = t.length

let pp ppf t =
  let rows = rows t in
  match rows with
  | [] -> Format.fprintf ppf "(empty waveform)"
  | first :: _ ->
    let n = Array.length first.cells in
    let line name value_of =
      Format.fprintf ppf "%-22s" name;
      List.iter
        (fun r -> Format.fprintf ppf "| %s " (value_of r))
        rows;
      Format.fprintf ppf "@,"
    in
    Format.fprintf ppf "@[<v>";
    line "cycle" (fun r -> Printf.sprintf "%8d" r.cycle);
    line "phase" (fun r -> Printf.sprintf "%8s" r.label);
    for cell = 0 to n - 1 do
      line
        (Printf.sprintf "R[cell %d] (MOhm)" (cell + 1))
        (fun r ->
          Printf.sprintf "%8.2f" (r.cells.(cell).Line_array.resistance /. 1e6))
    done;
    for cell = 0 to n - 1 do
      line
        (Printf.sprintf "V_TE[cell %d] (V)" (cell + 1))
        (fun r -> Printf.sprintf "%8.2f" r.cells.(cell).Line_array.v_te)
    done;
    line "V_BE shared (V)" (fun r ->
        Printf.sprintf "%8.2f" r.cells.(0).Line_array.v_be);
    for cell = 0 to n - 1 do
      line
        (Printf.sprintf "|I|[cell %d] (uA)" (cell + 1))
        (fun r ->
          Printf.sprintf "%8.3f" (r.cells.(cell).Line_array.current *. 1e6))
    done;
    Format.fprintf ppf "@]"

let final_states ~params t =
  if t.rev_cycles = [] then None
  else begin
    let rs = Float.Array.copy t.base in
    List.iter (fun (_, c) -> Line_array.update rs c) (List.rev t.rev_cycles);
    let mid = sqrt (params.Device.r_lrs *. params.Device.r_hrs) in
    Some (Float.Array.map_to_array (fun r -> r < mid) rs)
  end
