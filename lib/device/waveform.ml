type row = { cycle : int; label : string; cells : Line_array.cell_obs array }

(* Cycles are kept compact (drive + resistances); the per-cell
   observations of [row] are only built when a row is asked for. *)
type t = {
  mutable rev_cycles : (string * Line_array.cycle) list;
  mutable length : int;
}

let create () = { rev_cycles = []; length = 0 }

let record t ~label c =
  t.rev_cycles <- (label, c) :: t.rev_cycles;
  t.length <- t.length + 1

let rows t =
  List.mapi
    (fun i (label, c) -> { cycle = i + 1; label; cells = Line_array.observe c })
    (List.rev t.rev_cycles)

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
  match t.rev_cycles with
  | [] -> None
  | (_, last) :: _ ->
    let mid = sqrt (params.Device.r_lrs *. params.Device.r_hrs) in
    Some
      (Float.Array.map_to_array (fun r -> r < mid) last.Line_array.resistances)
