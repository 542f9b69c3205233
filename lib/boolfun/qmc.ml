type cube = { care : int; value : int }

let covers c q = q land c.care = c.value

let cube_size c =
  let rec pop acc n = if n = 0 then acc else pop (acc + (n land 1)) (n lsr 1) in
  pop 0 c.care

let cube_literals n c =
  let rec go i acc =
    if i > n then List.rev acc
    else
      let bit = 1 lsl (n - i) in
      if c.care land bit = 0 then go (i + 1) acc
      else
        let l = if c.value land bit <> 0 then Literal.Pos i else Literal.Neg i in
        go (i + 1) (l :: acc)
  in
  go 1 []

let sop_table n cubes =
  Truth_table.of_fun n (fun q -> List.exists (fun c -> covers c q) cubes)

let pp_cube n ppf c =
  match cube_literals n c with
  | [] -> Format.pp_print_string ppf "1"
  | lits ->
    Format.pp_print_string ppf
      (String.concat "*" (List.map Literal.to_string lits))

module Int_tbl = Hashtbl.Make (Int)

(* Classic QMC over packed implicants [value lsl n lor dc] with
   [value land dc = 0]. Two implicants of a level merge when their [dc]
   masks are equal and their values differ in exactly one bit, so the only
   partner of [(v, dc)] across a free bit [b] with [v land b = 0] is
   [(v lor b, dc)], one hash lookup per free 0-bit. Implicants never
   merged are prime. The prime set of a function is unique and returned
   sorted by [(value, dc)] — the packed order, as [dc < 2^n] — so the
   cover [minimize] picks from it does not depend on hash order. *)
let prime_implicants n minterms =
  let full = (1 lsl n) - 1 in
  let pack v dc = (v lsl n) lor dc in
  let primes = ref [] in
  let level = ref (List.map (fun m -> pack m 0) minterms) in
  while !level <> [] do
    (* implicant -> merged flag *)
    let merged = Int_tbl.create (2 * List.length !level) in
    List.iter (fun p -> Int_tbl.replace merged p false) !level;
    let next = Int_tbl.create 64 in
    List.iter
      (fun p ->
        let v = p lsr n and dc = p land full in
        for i = 0 to n - 1 do
          let b = 1 lsl i in
          let partner = pack (v lor b) dc in
          if (v lor dc) land b = 0 && Int_tbl.mem merged partner then begin
            Int_tbl.replace merged p true;
            Int_tbl.replace merged partner true;
            Int_tbl.replace next (pack v (dc lor b)) ()
          end
        done)
      !level;
    Int_tbl.iter (fun p m -> if not m then primes := p :: !primes) merged;
    level := Int_tbl.fold (fun p () acc -> p :: acc) next []
  done;
  List.map
    (fun p -> { care = full land lnot (p land full); value = p lsr n })
    (List.sort Int.compare !primes)

let minimize tt =
  let n = Truth_table.arity tt in
  let minterms =
    List.filter (Truth_table.eval tt) (List.init (Truth_table.rows tt) Fun.id)
  in
  match minterms with
  | [] -> []
  | _ when List.length minterms = Truth_table.rows tt -> [ { care = 0; value = 0 } ]
  | _ ->
    let primes = Array.of_list (prime_implicants n minterms) in
    let uncovered = Hashtbl.create 64 in
    List.iter (fun m -> Hashtbl.replace uncovered m ()) minterms;
    let chosen = ref [] in
    let choose c =
      chosen := c :: !chosen;
      Hashtbl.iter
        (fun m () -> if covers c m then Hashtbl.remove uncovered m)
        (Hashtbl.copy uncovered)
    in
    (* Essential primes first: a minterm covered by exactly one prime forces
       that prime into the cover. *)
    let essential =
      List.filter_map
        (fun m ->
          match Array.to_list (Array.map (fun c -> covers c m) primes) with
          | flags ->
            (match List.filteri (fun _ f -> f) flags with
             | [ _ ] ->
               let idx = ref (-1) in
               Array.iteri (fun i c -> if covers c m then idx := i) primes;
               Some !idx
             | _ -> None))
        minterms
    in
    List.iter (fun i -> choose primes.(i)) (List.sort_uniq Stdlib.compare essential);
    (* Greedy set cover for the rest: repeatedly pick the prime covering the
       most uncovered minterms, breaking ties towards fewer literals. *)
    while Hashtbl.length uncovered > 0 do
      let best = ref None in
      Array.iter
        (fun c ->
          let gain =
            Hashtbl.fold (fun m () acc -> if covers c m then acc + 1 else acc) uncovered 0
          in
          if gain > 0 then
            match !best with
            | None -> best := Some (c, gain)
            | Some (bc, bg) ->
              if gain > bg || (gain = bg && cube_size c < cube_size bc) then
                best := Some (c, gain))
        primes;
      match !best with
      | Some (c, _) -> choose c
      | None -> Hashtbl.reset uncovered (* unreachable: primes cover all minterms *)
    done;
    List.rev !chosen
