module Encode = Mm_core.Encode
module Synth = Mm_core.Synth
module Spec = Mm_boolfun.Spec
module Literal = Mm_boolfun.Literal

let magic = "MMSYNTH-ENGINE-CACHE"
(* v3: Solver.stats grew peak_learnts/props_per_s, changing the Marshal
   layout of cached attempts — v2 files are quarantined on load.
   v4: the sharded overlay layout. A v4 file is one shard of a directory
   of shards and carries an extra (index, of_k) header after the version;
   the record framing is unchanged. Single-file caches keep writing v3, so
   legacy caches and the tools that read them are untouched.
   v5 (single-file) / v6 (shard): Solver.stats grew restarts and
   imported_clauses (proof layer), changing the Marshal layout again —
   older files are quarantined on load exactly like the v2→v3 bump. The
   bump also rides a record-framing change: records are now raw
   digest ‖ length ‖ payload frames (see the layout comment below) so
   the digest is verified before any byte reaches Marshal.
   v7 (single-file) / v8 (shard): Solver.stats lost imported_clauses with
   the proof layer, changing the Marshal layout once more — v5/v6 files
   are quarantined on load like every earlier bump. *)
let format_version = 7
let shard_format_version = 8

type entry = { budget : float; attempt : Synth.attempt }

type load =
  | Fresh
  | Loaded of int
  | Invalid_version of { version : int; quarantined : string option }
  | Corrupt of { quarantined : string option }
  | Salvaged of { kept : int; dropped : int; quarantined : string option }
  | Sharded_load of {
      shards : int;
      files : int;
      entries : int;
      damaged : int;
      quarantined : string list;
    }

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

type layout =
  | L_memory
  | L_single of string
  | L_sharded of { dir : string; k : int }

type t = {
  table : (string, entry) Hashtbl.t;
  mutex : Mutex.t;
  layout : layout;
  load_result : load;
  dirty : bool array;  (** length [k] when sharded, 1 otherwise *)
  mutable hits : int;
  mutable misses : int;
  mutable stale : int;
  mutable atlas_hits : int;
  mutable atlas : (class_query -> class_answer option) option;
  mutable atlas_name : string option;
}

(* On-disk layout:
     magic bytes
     Marshal int                          -- format version (7 or 8)
     Marshal (int * int)                  -- v8 only: (shard index, of_k)
     record*                              -- until EOF
   where each record is raw framing we control end to end:
     16 bytes   MD5 digest of the payload
      8 bytes   big-endian payload length
      N bytes   payload = Marshal (key, entry)
   The digest is checked BEFORE the payload is unmarshalled — Marshal is
   not memory-safe on attacker-chosen bytes (a corrupted frame can crash
   the decoder outright), so the only bytes it ever decodes are ones the
   digest proves we wrote. A record that fails its digest is skipped at
   its recorded length (a payload flip leaves framing intact, the next
   record may be fine); an implausible length or short read means the
   framing itself is torn and ends the read — everything after it is
   unreliable. *)

type raw_read =
  | R_fresh
  | R_loaded of int
  | R_invalid_version of int
  | R_corrupt
  | R_salvaged of int * int

(* A length larger than this is a torn frame, not a record: no marshalled
   (key, entry) pair comes anywhere near it, and trusting a corrupted
   length would make the reader allocate garbage-sized buffers. *)
let max_record_payload = 1 lsl 26

let read_records ic table =
  let kept = ref 0 and dropped = ref 0 and torn = ref false in
  let reading = ref true in
  while !reading do
    match really_input_string ic 16 with
    | exception End_of_file -> reading := false
    | digest -> (
      match really_input_string ic 8 with
      | exception End_of_file ->
        torn := true;
        reading := false
      | lenb ->
        let len = Int64.to_int (String.get_int64_be lenb 0) in
        if len < 0 || len > max_record_payload then (
          torn := true;
          reading := false)
        else
          match really_input_string ic len with
          | exception End_of_file ->
            torn := true;
            reading := false
          | payload ->
            if Digest.string payload = digest then (
              match (Marshal.from_string payload 0 : string * entry) with
              | k, e ->
                Hashtbl.replace table k e;
                incr kept
              | exception Failure _ -> incr dropped)
            else incr dropped)
  done;
  if !torn || !dropped > 0 then
    R_salvaged (!kept, !dropped + if !torn then 1 else 0)
  else R_loaded !kept

(* The shard header is introspected before casting: Marshal is untyped, so
   a frame that is not an immediate-int pair (e.g. a record written where
   the header belongs) must not be read as one — an int-typed pointer would
   escape the GC's tracing. *)
let read_int_pair ic =
  let o : Obj.t = Marshal.from_channel ic in
  if
    Obj.is_block o && Obj.tag o = 0 && Obj.size o = 2
    && Obj.is_int (Obj.field o 0)
    && Obj.is_int (Obj.field o 1)
  then Some ((Obj.obj (Obj.field o 0) : int), (Obj.obj (Obj.field o 1) : int))
  else None

(* Read a cache file into [table]. [kind] selects the accepted layout:
   [`Single] is a single-file cache at [format_version] (any other
   version — including a shard — is a version mismatch), [`Shard] is a
   shard file at [shard_format_version] with its validated header, [`Any] accepts both (offline inspection). The shard
   header (when present and valid) is returned alongside the outcome. *)
let read_file_kind kind path =
  match open_in_bin path with
  | exception Sys_error _ -> (Hashtbl.create 64, R_fresh, None)
  | ic ->
    let table = Hashtbl.create 64 in
    let shard = ref None in
    let read_shard_tail () =
      match read_int_pair ic with
      | Some hdr ->
        shard := Some hdr;
        read_records ic table
      | None -> R_corrupt
    in
    let result =
      try
        let m = really_input_string ic (String.length magic) in
        if m <> magic then R_corrupt
        else
          let v : int = Marshal.from_channel ic in
          match kind with
          | `Single ->
            if v = format_version then read_records ic table
            else R_invalid_version v
          | `Shard ->
            if v = shard_format_version then read_shard_tail ()
            else R_invalid_version v
          | `Any ->
            if v = format_version then read_records ic table
            else if v = shard_format_version then read_shard_tail ()
            else R_invalid_version v
      with End_of_file | Failure _ -> R_corrupt
    in
    close_in_noerr ic;
    (table, result, !shard)

let read_file path =
  let table, raw, _ = read_file_kind `Single path in
  (table, raw)

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

(* ---- sharded overlay layout ----------------------------------------- *)

let shard_file_name i k = Printf.sprintf "shard-%d-of-%d.mmcache" i k

let parse_shard_name name =
  match Scanf.sscanf name "shard-%d-of-%d.mmcache%!" (fun i k -> (i, k)) with
  | (i, k) when i >= 0 && k >= 1 && i < k -> Some (i, k)
  | _ -> None
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None

(* Existing shard files of [dir], sorted by index. *)
let shard_files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter_map (fun name ->
           match parse_shard_name name with
           | Some (i, k) -> Some (i, k, Filename.concat dir name)
           | None -> None)
    |> List.sort compare

(* Stable shard assignment: MD5 of the fingerprint string (the engine's
   keys embed the canonical target tables, so this is a hash of the NPN
   class plus the encode configuration — stable across processes, unlike
   [Hashtbl.hash]). *)
let shard_of_key k key =
  if k <= 1 then 0
  else
    let d = Digest.string key in
    (Char.code d.[0] lor (Char.code d.[1] lsl 8)) mod k

let load_sharded dir k =
  let files = shard_files dir in
  (* adopt the shard count already on disk so no entry is orphaned by a
     daemon restarted with a different [--cache-shards] *)
  let k =
    match files with [] -> max 1 k | _ -> List.fold_left (fun acc (_, ok, _) -> max acc ok) 1 files
  in
  let table = Hashtbl.create 256 in
  let entries = ref 0
  and ok_files = ref 0
  and damaged = ref 0
  and quarantined = ref [] in
  List.iter
    (fun (_, _, path) ->
      let shard_table, raw, _ = read_file_kind `Shard path in
      Hashtbl.iter (fun key e -> Hashtbl.replace table key e) shard_table;
      match raw with
      | R_fresh -> ()
      | R_loaded n ->
        incr ok_files;
        entries := !entries + n
      | R_invalid_version _ | R_corrupt ->
        incr damaged;
        Option.iter
          (fun q -> quarantined := q :: !quarantined)
          (quarantine path)
      | R_salvaged (kept, _) ->
        incr damaged;
        entries := !entries + kept;
        Option.iter
          (fun q -> quarantined := q :: !quarantined)
          (quarantine path))
    files;
  let load_result =
    if files = [] then Fresh
    else
      Sharded_load
        {
          shards = k;
          files = !ok_files;
          entries = !entries;
          damaged = !damaged;
          quarantined = List.rev !quarantined;
        }
  in
  (table, k, load_result)

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?path ?shards () =
  match (path, shards) with
  | None, _ ->
    {
      table = Hashtbl.create 64;
      mutex = Mutex.create ();
      layout = L_memory;
      load_result = Fresh;
      dirty = Array.make 1 false;
      hits = 0;
      misses = 0;
      stale = 0;
      atlas_hits = 0;
      atlas = None;
      atlas_name = None;
    }
  | Some p, shards ->
    let as_single () =
      let table, raw =
        if Sys.file_exists p then read_file p else (Hashtbl.create 64, R_fresh)
      in
      let load_result =
        match raw with
        | R_fresh -> Fresh
        | R_loaded n -> Loaded n
        | R_invalid_version v ->
          Invalid_version { version = v; quarantined = quarantine p }
        | R_corrupt -> Corrupt { quarantined = quarantine p }
        | R_salvaged (kept, dropped) ->
          Salvaged { kept; dropped; quarantined = quarantine p }
      in
      {
        table;
        mutex = Mutex.create ();
        layout = L_single p;
        load_result;
        dirty = Array.make 1 false;
        hits = 0;
        misses = 0;
        stale = 0;
        atlas_hits = 0;
        atlas = None;
        atlas_name = None;
      }
    in
    (match shards with
     | None -> as_single ()
     | Some _ when Sys.file_exists p && not (Sys.is_directory p) ->
       (* a legacy single-file cache takes precedence over the requested
          sharding: its entries keep working and nothing is migrated
          behind the user's back *)
       as_single ()
     | Some k ->
       mkdir_p p;
       let table, k, load_result = load_sharded p (max 1 k) in
       {
         table;
         mutex = Mutex.create ();
         layout = L_sharded { dir = p; k };
         load_result;
         dirty = Array.make k false;
         hits = 0;
         misses = 0;
         stale = 0;
         atlas_hits = 0;
         atlas = None;
         atlas_name = None;
       })

let load_result t = t.load_result

let path t =
  match t.layout with
  | L_memory -> None
  | L_single p -> Some p
  | L_sharded { dir; _ } -> Some dir

let shards t =
  match t.layout with L_sharded { k; _ } -> Some k | L_memory | L_single _ -> None

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
  | Sharded_load { shards; files; entries; damaged; quarantined } ->
    Format.fprintf ppf "sharded overlay (%d shards): %d entries from %d files"
      shards entries files;
    if damaged > 0 then
      Format.fprintf ppf ", %d damaged shard%s quarantined (%s)" damaged
        (if damaged = 1 then "" else "s")
        (String.concat ", " quarantined)

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

let mark_dirty t k =
  match t.layout with
  | L_memory | L_single _ -> t.dirty.(0) <- true
  | L_sharded { k = n; _ } -> t.dirty.(shard_of_key n k) <- true

let find t ~timeout k =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.table k with
      | None ->
        t.misses <- t.misses + 1;
        None
      | Some e -> (
        match e.attempt.Synth.verdict with
        | Synth.Sat _ | Synth.Unsat ->
          t.hits <- t.hits + 1;
          Some e.attempt
        | Synth.Timeout ->
          if e.budget >= timeout then begin
            t.hits <- t.hits + 1;
            Some e.attempt
          end
          else begin
            (* known only up to a smaller budget: must re-solve *)
            t.stale <- t.stale + 1;
            None
          end))

let add t ~timeout k attempt =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.replace t.table k { budget = timeout; attempt };
      mark_dirty t k)

(* ---- the atlas hook -------------------------------------------------- *)

let set_atlas t ~name f =
  Mutex.protect t.mutex (fun () ->
      t.atlas <- Some f;
      t.atlas_name <- Some name)

let clear_atlas t =
  Mutex.protect t.mutex (fun () ->
      t.atlas <- None;
      t.atlas_name <- None)

let has_atlas t = Mutex.protect t.mutex (fun () -> t.atlas <> None)
let atlas_name t = Mutex.protect t.mutex (fun () -> t.atlas_name)

let find_class t q =
  match Mutex.protect t.mutex (fun () -> t.atlas) with
  | None -> None
  | Some f -> (
    (* the lookup itself runs outside the mutex: it canonicalizes and
       re-verifies a circuit, and must not block concurrent overlay finds *)
    match f q with
    | None -> None
    | Some _ as a ->
      Mutex.protect t.mutex (fun () -> t.atlas_hits <- t.atlas_hits + 1);
      a)

(* ---- persistence ----------------------------------------------------- *)

let tmp_counter = Atomic.make 0

let tmp_name p =
  Printf.sprintf "%s.tmp.%d.%d" p (Unix.getpid ())
    (Atomic.fetch_and_add tmp_counter 1)

let write_file ~version ?shard p iter =
  let tmp = tmp_name p in
  let oc = open_out_bin tmp in
  output_string oc magic;
  Marshal.to_channel oc version [];
  Option.iter (fun hdr -> Marshal.to_channel oc (hdr : int * int) []) shard;
  iter (fun k e ->
      let payload = Marshal.to_string (k, e) [] in
      output_string oc (Digest.string payload);
      let lenb = Bytes.create 8 in
      Bytes.set_int64_be lenb 0 (Int64.of_int (String.length payload));
      output_bytes oc lenb;
      output_string oc payload);
  close_out oc;
  Sys.rename tmp p

let save_locked t version =
  match t.layout with
  | L_memory -> ()
  | L_single p ->
    write_file ~version p (fun emit -> Hashtbl.iter emit t.table);
    t.dirty.(0) <- false
  | L_sharded { dir; k } ->
    (* bucket once, rewrite only the shards touched since the last flush —
       concurrent daemons over the same overlay contend per shard, not on
       one file *)
    let buckets = Array.make k [] in
    Hashtbl.iter
      (fun key e ->
        let i = shard_of_key k key in
        if t.dirty.(i) then buckets.(i) <- (key, e) :: buckets.(i))
      t.table;
    for i = 0 to k - 1 do
      if t.dirty.(i) then begin
        write_file ~version:shard_format_version ~shard:(i, k)
          (Filename.concat dir (shard_file_name i k))
          (fun emit -> List.iter (fun (key, e) -> emit key e) buckets.(i));
        t.dirty.(i) <- false
      end
    done

let flush t = Mutex.protect t.mutex (fun () -> save_locked t format_version)

let save_with_version t v = Mutex.protect t.mutex (fun () -> save_locked t v)

let counters t =
  Mutex.protect t.mutex (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        stale = t.stale;
        atlas_hits = t.atlas_hits;
        entries = Hashtbl.length t.table;
      })

let reset_counters t =
  Mutex.protect t.mutex (fun () ->
      t.hits <- 0;
      t.misses <- 0;
      t.stale <- 0;
      t.atlas_hits <- 0)

(* ---- offline inspection (never moves or modifies files) -------------- *)

type info = {
  size_bytes : int option;
  version : int option;
  status : load;
  entries : int;
  shard : (int * int) option;
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

let peek_version path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let v =
      try
        let m = really_input_string ic (String.length magic) in
        if m <> magic then None else Some (Marshal.from_channel ic : int)
      with End_of_file | Failure _ -> None
    in
    close_in_noerr ic;
    v

let inspect path =
  let size_bytes =
    match Unix.stat path with
    | { Unix.st_size; _ } -> Some st_size
    | exception Unix.Unix_error _ -> None
  in
  let table, raw, shard =
    if size_bytes = None then (Hashtbl.create 1, R_fresh, None)
    else read_file_kind `Any path
  in
  let status =
    match raw with
    | R_fresh -> Fresh
    | R_loaded n -> Loaded n
    | R_invalid_version v -> Invalid_version { version = v; quarantined = None }
    | R_corrupt -> Corrupt { quarantined = None }
    | R_salvaged (kept, dropped) ->
      Salvaged { kept; dropped; quarantined = None }
  in
  {
    size_bytes;
    version = (if size_bytes = None then None else peek_version path);
    status;
    entries = Hashtbl.length table;
    shard;
    corrupt_siblings = quarantined_siblings path;
  }
