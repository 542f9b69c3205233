module Tt = Mm_boolfun.Truth_table
module Spec = Mm_boolfun.Spec
module Circuit = Mm_core.Circuit
module Rop = Mm_core.Rop
module Encode = Mm_core.Encode
module Synth = Mm_core.Synth
module Engine = Mm_engine.Engine
module Npn = Mm_engine.Npn
module Pool = Mm_engine.Pool
module Cache = Mm_engine.Cache
module Record_file = Mm_engine.Record_file

let magic = "MMSYNTH-ATLAS"
(* v1 marshalled this number and every (digest, payload) frame; v2 is the
   raw [Record_file] framing, so a v1 file reads as a bad header. *)
let format_version = 2

type mode = Mixed | R_only

let mode_to_string = function Mixed -> "mixed" | R_only -> "r-only"

type cert = {
  c_legs : int;
  c_steps : int;
  c_rops : int;
  c_conflicts : int;
  c_time_s : float;
}

type record = {
  mode : mode;
  rop_kind : Rop.kind;
  taps : Encode.taps;
  arity : int;
  target : int;
  circuit : Circuit.t;
  rops : int;
  steps : int;
  legs : int;
  effort : int;
  rops_exact : bool;
  steps_exact : bool;
  certificates : cert list;
  wall_s : float;
}

type t = { path : string; table : (string, record) Hashtbl.t }

type error =
  | Missing
  | Unreadable of string
  | Bad_header
  | Bad_version of int
  | Damaged of { kept : int; dropped : int; torn : bool }

let pp_error ppf = function
  | Missing -> Format.fprintf ppf "no atlas file"
  | Unreadable reason -> Format.fprintf ppf "cannot read the atlas: %s" reason
  | Bad_header ->
    Format.fprintf ppf "not an atlas file of format %d (unrecognized header)"
      format_version
  | Bad_version v ->
    Format.fprintf ppf "atlas format version %d (this build reads %d)" v
      format_version
  | Damaged { kept; dropped; torn } ->
    Format.fprintf ppf
      "damaged atlas: %d records readable, %d failed their checksum%s" kept
      dropped
      (if torn then ", torn tail (truncation or garbage)" else "")

(* R-only circuits have no V-legs, so the tap discipline cannot matter:
   one stored record serves both [Final_only] and [Any_vop] queries. *)
let norm_taps mode taps =
  match mode with R_only -> Encode.Final_only | Mixed -> taps

let key ~mode ~rop_kind ~taps ~arity ~target =
  Printf.sprintf "%s|%s|%s|n%d|%04x"
    (match mode with Mixed -> "mixed" | R_only -> "r")
    (Rop.to_string rop_kind)
    (match norm_taps mode taps with
     | Encode.Final_only -> "fin"
     | Encode.Any_vop -> "any")
    arity target

let key_of_record r =
  key ~mode:r.mode ~rop_kind:r.rop_kind ~taps:r.taps ~arity:r.arity
    ~target:r.target

(* ---- file I/O --------------------------------------------------------- *)

(* Records are [Record_file] frames whose payload is (key, record). *)

type read_result = {
  r_table : (string, record) Hashtbl.t;
  r_dropped : int;
  r_torn : bool;
}

let read_raw path =
  let table = Hashtbl.create 512 in
  match
    Record_file.read ~magic ~version:format_version path
      (fun ((k, r) : string * record) -> Hashtbl.replace table k r)
  with
  | Missing -> Error Missing
  | Unreadable reason -> Error (Unreadable reason)
  | Bad_header -> Error Bad_header
  | Wrong_version v -> Error (Bad_version v)
  | Read { dropped; torn; _ } ->
    Ok { r_table = table; r_dropped = dropped; r_torn = torn }

let load path =
  match read_raw path with
  | Error e -> Error e
  | Ok { r_table; r_dropped; r_torn } ->
    if r_dropped > 0 || r_torn then
      Error
        (Damaged
           { kept = Hashtbl.length r_table; dropped = r_dropped; torn = r_torn })
    else Ok { path; table = r_table }

let path t = t.path
let size t = Hashtbl.length t.table

let records t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.table []
  |> List.sort (fun a b -> compare (key_of_record a) (key_of_record b))

let write_records path table =
  Record_file.write ~magic ~version:format_version path (fun emit ->
      Hashtbl.iter (fun k r -> emit (k, r)) table)

(* ---- lookup ----------------------------------------------------------- *)

let find t ~mode ~rop_kind ~taps f =
  let n = Tt.arity f in
  if n < 1 || n > 4 then None
  else begin
    (* the engine's member→target map: target = rep in f's output
       polarity, reached by an input-only transform *)
    let _, u = Npn.canon f in
    let t_in = Npn.input_only u in
    let target = Npn.apply t_in f in
    match
      Hashtbl.find_opt t.table
        (key ~mode ~rop_kind ~taps ~arity:n ~target:(Tt.to_int target))
    with
    | None -> None
    | Some r -> (
      let c = Npn.apply_circuit (Npn.inverse t_in) r.circuit in
      match Circuit.realizes c (Spec.make ~name:"atlas-query" [| f |]) with
      | Ok () -> Some (c, r)
      | Error _ -> None)
  end

(* The engine hands the hook its canonical solve target and pulls the
   stored circuit back to the member itself, verifying it there. The hook
   is one table lookup plus a check that the stored circuit realizes the
   target, so a stale or foreign record is a miss the solver answers. *)
let attach t cache =
  Cache.set_atlas cache (fun q ->
      if Spec.output_count q.Cache.q_spec <> 1 then None
      else
        let f = Spec.output q.Cache.q_spec 0 in
        let mode = match q.Cache.q_mode with `Mixed -> Mixed | `R_only -> R_only in
        let within cap n = match cap with Some m -> n <= m | None -> true in
        match
          Hashtbl.find_opt t.table
            (key ~mode ~rop_kind:q.Cache.q_rop_kind ~taps:q.Cache.q_taps
               ~arity:(Tt.arity f) ~target:(Tt.to_int f))
        with
        | Some r
          when r.rops_exact
               && within q.Cache.q_max_rops r.rops
               && within q.Cache.q_max_steps r.steps
               && Circuit.realizes r.circuit q.Cache.q_spec = Ok () ->
          Some
            {
              Cache.a_circuit = r.circuit;
              a_rops = r.rops;
              a_steps = r.steps;
              a_legs = r.legs;
              a_rops_exact = r.rops_exact;
              a_steps_exact = r.steps_exact;
              a_effort = r.effort;
            }
        | Some _ | None -> None)

(* ---- building --------------------------------------------------------- *)

type goal = {
  g_mode : mode;
  g_rop_kind : Rop.kind;
  g_taps : Encode.taps;
  g_target : Tt.t;
}

let goal_key g =
  key ~mode:g.g_mode ~rop_kind:g.g_rop_kind ~taps:g.g_taps
    ~arity:(Tt.arity g.g_target) ~target:(Tt.to_int g.g_target)

let universe ?(modes = [ Mixed; R_only ]) ?(rop_kind = Rop.Nor)
    ?(taps = Encode.Any_vop) ?(include_tts = []) ~max_n () =
  if max_n < 1 || max_n > 4 then
    invalid_arg "Atlas.universe: max_n must be 1..4";
  let seen = Hashtbl.create 2048 in
  let out = ref [] in
  let add_target tt =
    List.iter
      (fun g_mode ->
        let g = { g_mode; g_rop_kind = rop_kind; g_taps = taps; g_target = tt } in
        let k = goal_key g in
        if not (Hashtbl.mem seen k) then begin
          Hashtbl.add seen k ();
          out := g :: !out
        end)
      modes
  in
  (* both polarity targets of a class: rep and its complement (see .mli) *)
  let add_class rep =
    add_target rep;
    add_target (Tt.lnot rep)
  in
  for n = 1 to max_n do
    List.iter add_class (Npn.class_reps n)
  done;
  List.iter
    (fun f ->
      if Tt.arity f >= 1 && Tt.arity f <= 4 then
        add_class (fst (Npn.canon f)))
    include_tts;
  List.rev !out

(* A record satisfies a requested effort tier when it was already built at
   that tier (don't re-burn timeouts on resume) or already carries the
   proofs the tier aims for. *)
let satisfies ~effort r =
  r.effort >= effort
  ||
  match effort with
  | 1 -> true
  | 2 -> r.rops_exact
  | _ -> r.rops_exact && r.steps_exact

let certs_of_report (report : Synth.report) =
  List.filter_map
    (fun (a : Synth.attempt) ->
      match a.Synth.verdict with
      | Synth.Unsat ->
        Some
          {
            c_legs = a.Synth.n_legs;
            c_steps = a.Synth.steps_per_leg;
            c_rops = a.Synth.n_rops;
            c_conflicts = a.Synth.solver_stats.Mm_sat.Solver.conflicts;
            c_time_s = a.Synth.time_s;
          }
      | Synth.Sat _ | Synth.Timeout -> None)
    report.Synth.attempts

let record_of_circuit ~goal ~effort ~rops_exact ~steps_exact ~certificates
    ~wall_s c =
  {
    mode = goal.g_mode;
    rop_kind = goal.g_rop_kind;
    taps = norm_taps goal.g_mode goal.g_taps;
    arity = Tt.arity goal.g_target;
    target = Tt.to_int goal.g_target;
    circuit = c;
    rops = Circuit.n_rops c;
    steps = Circuit.steps_per_leg c;
    legs = Circuit.n_legs c;
    effort;
    rops_exact;
    steps_exact;
    certificates;
    wall_s;
  }

(* Every goal goes through the engine's resolver on its target as given
   (no NPN plan: goals are class targets already). Tier 1 is the
   resolver's verified fallback alone — the Shannon-flow heuristic for a
   mixed goal, the QMC→NOR baseline for an R-only one; tiers 2 and 3 are
   its exact solve, degrading to that fallback when the budget is gone. *)
let solve_goal ~effort ~timeout_per_call goal =
  let t0 = Unix.gettimeofday () in
  let r_only = goal.g_mode = R_only in
  let cfg =
    Engine.config ~rop_kind:goal.g_rop_kind ~taps:goal.g_taps
      ~canonicalize:false ~fallback:Engine.Use_heuristic
      ~timeout_per_call:
        (if effort >= 3 then timeout_per_call *. 4. else timeout_per_call)
      ()
  in
  let spec = Spec.make ~name:"atlas-goal" [| goal.g_target |] in
  let record ~effort ~rops_exact ~steps_exact ~certificates c =
    record_of_circuit ~goal ~effort ~rops_exact ~steps_exact ~certificates
      ~wall_s:(Unix.gettimeofday () -. t0) c
  in
  let tier1 c =
    record ~effort:1 ~rops_exact:false ~steps_exact:false ~certificates:[] c
  in
  if effort <= 1 then
    Option.map (fun (c, _) -> tier1 c) (Engine.fallback ~r_only cfg spec)
  else
    match Engine.probe_class ~r_only cfg spec with
    | Some { Engine.probe_exact = true; probe_circuit; probe_report; _ } ->
      let rops_exact = probe_report.Synth.rops_proven_minimal in
      (* no V-steps exist in R-only mode: step minimality is R minimality *)
      let steps_exact =
        if r_only then rops_exact else probe_report.Synth.steps_proven_minimal
      in
      Some
        (record ~effort ~rops_exact ~steps_exact
           ~certificates:(certs_of_report probe_report) probe_circuit)
    | Some p -> Some (tier1 p.Engine.probe_circuit)
    | None -> None

type build_stats = {
  total : int;
  built : int;
  reused : int;
  failed : int;
  wall_s : float;
}

let build ?(effort = 2) ?domains ?(timeout_per_call = 10.) ?(resume = true)
    ?progress ~path goals =
  if effort < 1 || effort > 3 then
    invalid_arg "Atlas.build: effort must be 1..3";
  let t0 = Unix.gettimeofday () in
  let say msg = match progress with Some f -> f msg | None -> () in
  (* resumed table: the valid prefix of whatever is already at [path] *)
  let seed =
    if not resume then Ok (Hashtbl.create 512)
    else
      match read_raw path with
      | Error Missing -> Ok (Hashtbl.create 512)
      | Error e -> Error e
      | Ok { r_table; r_dropped; r_torn } ->
        if r_dropped > 0 || r_torn then
          say
            (Printf.sprintf
               "resuming damaged file: %d records salvaged, %d dropped%s"
               (Hashtbl.length r_table) r_dropped
               (if r_torn then ", torn tail" else ""));
        Ok r_table
  in
  match seed with
  | Error e -> Error e
  | Ok table ->
    (* dedupe goals, drop the ones the resumed records already satisfy *)
    let seen = Hashtbl.create 2048 in
    let todo =
      List.filter
        (fun g ->
          let k = goal_key g in
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.add seen k ();
            match Hashtbl.find_opt table k with
            | Some r when satisfies ~effort r -> false
            | Some _ | None -> true
          end)
        goals
    in
    let total = Hashtbl.length seen in
    let reused = total - List.length todo in
    let built = ref 0 and failed = ref 0 in
    let domains =
      match domains with Some d -> max 1 d | None -> Pool.default_domains ()
    in
    let chunk_size = max 8 (domains * 4) in
    let todo = Array.of_list todo in
    let n_todo = Array.length todo in
    let pos = ref 0 in
    while !pos < n_todo do
      let len = min chunk_size (n_todo - !pos) in
      let chunk = Array.sub todo !pos len in
      let outs =
        Pool.run ~domains
          (Array.map
             (fun g () -> solve_goal ~effort ~timeout_per_call g)
             chunk)
      in
      Array.iteri
        (fun i o ->
          match o with
          | Ok (Some r) ->
            Hashtbl.replace table (goal_key chunk.(i)) r;
            incr built
          | Ok None | Error _ -> incr failed)
        outs;
      (* atomic checkpoint: an interrupted build resumes from here *)
      write_records path table;
      pos := !pos + len;
      say
        (Printf.sprintf "%d/%d goals (%d built, %d reused, %d failed), %.1fs"
           (reused + !pos) total (!built) reused (!failed)
           (Unix.gettimeofday () -. t0))
    done;
    if n_todo = 0 then write_records path table;
    Ok
      {
        total;
        built = !built;
        reused;
        failed = !failed;
        wall_s = Unix.gettimeofday () -. t0;
      }

(* ---- inspection ------------------------------------------------------- *)

type file_info = {
  i_version : int;
  i_records : int;
  i_bytes : int;
  i_by_arity : (int * int) list;
  i_by_mode : (mode * int) list;
  i_by_effort : (int * int) list;
  i_rops_exact : int;
  i_both_exact : int;
  i_certificates : int;
  i_damage : (int * bool) option;
}

let info path =
  match read_raw path with
  | Error e -> Error e
  | Ok { r_table; r_dropped; r_torn } ->
    let bump assoc k =
      match List.assoc_opt k !assoc with
      | Some n -> assoc := (k, n + 1) :: List.remove_assoc k !assoc
      | None -> assoc := (k, 1) :: !assoc
    in
    let by_arity = ref [] and by_mode = ref [] and by_effort = ref [] in
    let rops_exact = ref 0 and both_exact = ref 0 and certs = ref 0 in
    Hashtbl.iter
      (fun _ r ->
        bump by_arity r.arity;
        bump by_mode r.mode;
        bump by_effort r.effort;
        if r.rops_exact then incr rops_exact;
        if r.rops_exact && r.steps_exact then incr both_exact;
        certs := !certs + List.length r.certificates)
      r_table;
    Ok
      {
        i_version = format_version;
        i_records = Hashtbl.length r_table;
        i_bytes =
          (match Unix.stat path with
           | { Unix.st_size; _ } -> st_size
           | exception Unix.Unix_error _ -> 0);
        i_by_arity = List.sort compare !by_arity;
        i_by_mode = List.sort compare !by_mode;
        i_by_effort = List.sort compare !by_effort;
        i_rops_exact = !rops_exact;
        i_both_exact = !both_exact;
        i_certificates = !certs;
        i_damage =
          (if r_dropped > 0 || r_torn then Some (r_dropped, r_torn) else None);
      }

(* ---- deep verification ------------------------------------------------ *)

type issue =
  | File_error of error
  | Wrong_rows of { key : string; row : int }
  | Metric_mismatch of { key : string; field : string; stored : int; actual : int }
  | Malformed of { key : string; what : string }

let pp_issue ppf = function
  | File_error e -> pp_error ppf e
  | Wrong_rows { key; row } ->
    Format.fprintf ppf "%s: circuit disagrees with its target on row %d" key
      row
  | Metric_mismatch { key; field; stored; actual } ->
    Format.fprintf ppf "%s: stored %s=%d but the circuit has %d" key field
      stored actual
  | Malformed { key; what } -> Format.fprintf ppf "%s: %s" key what

let verify path =
  match read_raw path with
  | Error e -> Error [ File_error e ]
  | Ok { r_table; r_dropped; r_torn } ->
    let issues = ref [] in
    let issue i = issues := i :: !issues in
    if r_dropped > 0 || r_torn then
      issue
        (File_error
           (Damaged
              {
                kept = Hashtbl.length r_table;
                dropped = r_dropped;
                torn = r_torn;
              }));
    Hashtbl.iter
      (fun key r ->
        if r.arity < 1 || r.arity > 4 then
          issue (Malformed { key; what = "arity out of range" })
        else begin
          let metric field stored actual =
            if stored <> actual then
              issue (Metric_mismatch { key; field; stored; actual })
          in
          metric "rops" r.rops (Circuit.n_rops r.circuit);
          metric "steps" r.steps (Circuit.steps_per_leg r.circuit);
          metric "legs" r.legs (Circuit.n_legs r.circuit);
          if r.mode = R_only && Circuit.n_legs r.circuit > 0 then
            issue (Malformed { key; what = "R-only record has V-legs" });
          if r.effort < 1 || r.effort > 3 then
            issue (Malformed { key; what = "effort out of range" });
          match
            Circuit.realizes r.circuit
              (Spec.make ~name:"atlas-verify"
                 [| Tt.of_int r.arity r.target |])
          with
          | Ok () -> ()
          | Error row -> issue (Wrong_rows { key; row })
          | exception _ ->
            issue (Malformed { key; what = "circuit fails validation" })
        end)
      r_table;
    if !issues = [] then Ok (Hashtbl.length r_table)
    else Error (List.rev !issues)
