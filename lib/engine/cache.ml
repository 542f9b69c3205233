module Encode = Mm_core.Encode
module Synth = Mm_core.Synth
module Spec = Mm_boolfun.Spec
module Literal = Mm_boolfun.Literal

let magic = "MMSYNTH-ENGINE-CACHE"
(* The version changes whenever the marshalled [entry] layout does (e.g.
   [Solver.stats] gaining or losing a field), so an older file is
   quarantined instead of being misread. v2..v8 marshalled this number
   after the magic; v9 moved to the raw header of [Record_file], so every
   earlier file now reads as a bad header (v4, v6 and v8 were the shards
   of a sharded overlay layout, since removed). *)
let format_version = 9

type entry = { budget : float; attempt : Synth.attempt }

type load =
  | Fresh
  | Loaded of int
  | Invalid_version of { version : int; quarantined : string option }
  | Corrupt of { quarantined : string option }
  | Salvaged of { kept : int; dropped : int; quarantined : string option }
  | Unreadable of string

type counters = {
  hits : int;
  misses : int;
  stale : int;
  atlas_hits : int;
  entries : int;
}

(* ---- the atlas tier ------------------------------------------------- *)

type class_query = {
  q_spec : Spec.t;
  q_mode : [ `Mixed | `R_only ];
  q_rop_kind : Mm_core.Rop.kind;
  q_taps : Encode.taps;
  q_max_rops : int option;
  q_max_steps : int option;
}

type class_answer = {
  a_circuit : Mm_core.Circuit.t;
  a_rops : int;
  a_steps : int;
  a_legs : int;
  a_rops_exact : bool;
  a_steps_exact : bool;
  a_effort : int;
}

(* Probe counts. Every count is made under the cache's mutex. *)
type tally = {
  mutable t_hits : int;
  mutable t_misses : int;
  mutable t_stale : int;
  mutable t_atlas_hits : int;
}

let tally () = { t_hits = 0; t_misses = 0; t_stale = 0; t_atlas_hits = 0 }

type t = {
  table : (string, entry) Hashtbl.t;
  mutex : Mutex.t;
  path : string option;
  load_result : load;
  mutable dirty : bool;  (* an entry was added since the file was written *)
  shared : tally;  (* every probe since the last [reset_counters] *)
  mutable atlas : (class_query -> class_answer option) option;
}

(* Records are [Record_file] frames whose payload is (key, entry). *)
let read_file path =
  let table = Hashtbl.create 64 in
  let outcome =
    Record_file.read ~magic ~version:format_version path
      (fun ((k, e) : string * entry) -> Hashtbl.replace table k e)
  in
  (table, outcome)

(* Move a damaged file aside to [path.corrupt] (first free numeric suffix
   if that name is taken) so the bytes survive for post-mortem — the cache
   never silently discards data it could not read. *)
let quarantine path =
  let rec free n =
    let candidate =
      if n = 0 then path ^ ".corrupt" else Printf.sprintf "%s.corrupt.%d" path n
    in
    if Sys.file_exists candidate then free (n + 1) else candidate
  in
  let dst = free 0 in
  match Sys.rename path dst with
  | () -> Some dst
  | exception Sys_error _ -> None

(* What a read amounts to; [quarantine] is called once for a damaged file
   and answers where it went. An unreadable path is not damage: it is
   never moved. *)
let load_of ~quarantine : Record_file.outcome -> load = function
  | Missing -> Fresh
  | Unreadable reason -> Unreadable reason
  | Bad_header -> Corrupt { quarantined = quarantine () }
  | Wrong_version version ->
    Invalid_version { version; quarantined = quarantine () }
  | Read { kept; dropped = 0; torn = false } -> Loaded kept
  | Read { kept; dropped; torn } ->
    Salvaged
      { kept; dropped = dropped + Bool.to_int torn; quarantined = quarantine () }

let create ?path () =
  let table, load_result =
    match path with
    | None -> (Hashtbl.create 64, Fresh)
    | Some p ->
      let table, outcome = read_file p in
      (table, load_of ~quarantine:(fun () -> quarantine p) outcome)
  in
  {
    table;
    mutex = Mutex.create ();
    path;
    load_result;
    (* a load that moved the file aside starts dirty, so the next flush
       writes the salvaged entries back *)
    dirty =
      (match load_result with
       | Invalid_version _ | Corrupt _ | Salvaged _ -> true
       | Fresh | Loaded _ | Unreadable _ -> false);
    shared = tally ();
    atlas = None;
  }

let load_result t = t.load_result
let path t = t.path

let pp_quarantined ppf = function
  | Some q -> Format.fprintf ppf " (quarantined to %s)" q
  | None -> ()

let pp_load ppf = function
  | Fresh -> Format.fprintf ppf "fresh (no existing file)"
  | Loaded n -> Format.fprintf ppf "loaded %d entries" n
  | Invalid_version { version; quarantined } ->
    Format.fprintf ppf "on-disk version %d != %d, starting empty%a" version
      format_version pp_quarantined quarantined
  | Corrupt { quarantined } ->
    Format.fprintf ppf "corrupt file, starting empty%a" pp_quarantined
      quarantined
  | Salvaged { kept; dropped; quarantined } ->
    Format.fprintf ppf "damaged file: salvaged %d entries, dropped >= %d%a"
      kept dropped pp_quarantined quarantined
  | Unreadable reason ->
    Format.fprintf ppf "unreadable path (%s), starting empty" reason

let key (cfg : Encode.config) spec =
  let b = Buffer.create 128 in
  let lit l = Buffer.add_string b (Literal.to_string l) in
  Buffer.add_string b
    (Printf.sprintf "L%d/S%d/R%d|%s|%s|%s|be%b|sym%b|lri%b" cfg.n_legs
       cfg.steps_per_leg cfg.n_rops
       (Mm_core.Rop.to_string cfg.rop_kind)
       (match cfg.style with Encode.Direct -> "dir" | Encode.Compact -> "cmp")
       (match cfg.taps with Encode.Final_only -> "fin" | Encode.Any_vop -> "any")
       cfg.shared_be cfg.symmetry_breaking cfg.allow_literal_rop_inputs);
  List.iter
    (fun (l, s, x) -> Buffer.add_string b (Printf.sprintf "|te%d.%d=" l s); lit x)
    cfg.forced_te;
  List.iter
    (fun (s, x) -> Buffer.add_string b (Printf.sprintf "|be%d=" s); lit x)
    cfg.forced_be;
  Buffer.add_string b (Printf.sprintf "|n%d" (Spec.arity spec));
  Array.iter
    (fun tt ->
      Buffer.add_char b '|';
      Buffer.add_string b (Mm_boolfun.Truth_table.to_string tt))
    (Spec.outputs spec);
  Buffer.contents b

(* Count one probe in the shared counters and in the caller's [tally];
   the caller holds the mutex. *)
let count t tally bump =
  bump t.shared;
  Option.iter bump tally

let find ?tally t ~timeout k =
  let count = count t tally in
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.table k with
      | None ->
        count (fun c -> c.t_misses <- c.t_misses + 1);
        None
      | Some e -> (
        match e.attempt.Synth.verdict with
        | Synth.Sat _ | Synth.Unsat ->
          count (fun c -> c.t_hits <- c.t_hits + 1);
          Some e.attempt
        | Synth.Timeout ->
          if e.budget >= timeout then begin
            count (fun c -> c.t_hits <- c.t_hits + 1);
            Some e.attempt
          end
          else begin
            (* known only up to a smaller budget: must re-solve *)
            count (fun c -> c.t_stale <- c.t_stale + 1);
            None
          end))

let add t ~timeout k attempt =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.replace t.table k { budget = timeout; attempt };
      t.dirty <- true)

(* ---- the atlas hook -------------------------------------------------- *)

let set_atlas t f = Mutex.protect t.mutex (fun () -> t.atlas <- Some f)

let find_class ?tally t q =
  match Mutex.protect t.mutex (fun () -> t.atlas) with
  | None -> None
  | Some f -> (
    (* the lookup itself runs outside the mutex: it must not block
       concurrent overlay finds *)
    match f q with
    | None -> None
    | Some _ as a ->
      Mutex.protect t.mutex (fun () ->
          count t tally (fun c -> c.t_atlas_hits <- c.t_atlas_hits + 1));
      a)

(* ---- persistence ----------------------------------------------------- *)

let save_locked t version =
  Option.iter
    (fun p ->
      Record_file.write ~magic ~version p (fun emit ->
          Hashtbl.iter (fun k e -> emit (k, e)) t.table))
    t.path

let flush t =
  Mutex.protect t.mutex (fun () ->
      if t.dirty then begin
        save_locked t format_version;
        t.dirty <- false
      end)

let save_with_version t v = Mutex.protect t.mutex (fun () -> save_locked t v)

let counters_of t c =
  { hits = c.t_hits; misses = c.t_misses; stale = c.t_stale;
    atlas_hits = c.t_atlas_hits; entries = Hashtbl.length t.table }

let counters t = Mutex.protect t.mutex (fun () -> counters_of t t.shared)

let tally_counters t tally =
  Mutex.protect t.mutex (fun () -> counters_of t tally)

let reset_counters t =
  Mutex.protect t.mutex (fun () ->
      t.shared.t_hits <- 0;
      t.shared.t_misses <- 0;
      t.shared.t_stale <- 0;
      t.shared.t_atlas_hits <- 0)

(* ---- offline inspection (never moves or modifies files) -------------- *)

type info = {
  size_bytes : int option;
  version : int option;
  status : load;
  entries : int;
  corrupt_siblings : string list;
}

let quarantined_siblings path =
  let rec go n acc =
    let candidate =
      if n = 0 then path ^ ".corrupt" else Printf.sprintf "%s.corrupt.%d" path n
    in
    if Sys.file_exists candidate then go (n + 1) (candidate :: acc)
    else List.rev acc
  in
  go 0 []

let inspect path =
  let table, outcome = read_file path in
  {
    size_bytes =
      (match Unix.stat path with
       | { Unix.st_size; _ } -> Some st_size
       | exception Unix.Unix_error _ -> None);
    version =
      (match outcome with
       | Read _ -> Some format_version
       | Wrong_version v -> Some v
       | Missing | Unreadable _ | Bad_header -> None);
    status = load_of ~quarantine:(fun () -> None) outcome;
    entries = Hashtbl.length table;
    corrupt_siblings = quarantined_siblings path;
  }
