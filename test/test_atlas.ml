(* The NPN block atlas: build / persist / lookup, the two-tier store, and
   the engine's zero-SAT serve path. *)

module Atlas = Mm_atlas.Atlas
module Cache = Mm_engine.Cache
module Engine = Mm_engine.Engine
module Npn = Mm_engine.Npn
module Synth = Mm_core.Synth
module Circuit = Mm_core.Circuit
module Rop = Mm_core.Rop
module E = Mm_core.Encode
module Spec = Mm_boolfun.Spec
module Tt = Mm_boolfun.Truth_table

let tmp_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mm_atlas_test_%d_%d.mmatlas" (Unix.getpid ()) !counter)

(* one small universe per run, shared by the tests below and removed when
   the run exits *)
let built =
  lazy
    (let path = tmp_path () in
     at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
     let goals = Atlas.universe ~max_n:2 () in
     match
       Atlas.build ~effort:2 ~domains:2 ~timeout_per_call:10. ~path goals
     with
     | Ok stats -> (path, stats)
     | Error e -> Alcotest.failf "build failed: %a" Atlas.pp_error e)

let load_built () =
  let path, _ = Lazy.force built in
  match Atlas.load path with
  | Ok t -> t
  | Error e -> Alcotest.failf "load failed: %a" Atlas.pp_error e

let copy_built () =
  let path, _ = Lazy.force built in
  let dst = tmp_path () in
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc contents;
  close_out oc;
  dst

(* ---- universe ---------------------------------------------------------- *)

(* both polarity targets of every class, both modes, deduplicated *)
let test_universe_counts () =
  let count max_n =
    (* classes of arity 1..max_n *)
    let classes = List.init max_n (fun i -> List.length (Npn.class_reps (i + 1))) in
    List.fold_left ( + ) 0 classes
  in
  List.iter
    (fun max_n ->
      let goals = Atlas.universe ~max_n () in
      Alcotest.(check int)
        (Printf.sprintf "n<=%d both modes" max_n)
        (count max_n * 2 * 2)
        (List.length goals);
      let single = Atlas.universe ~modes:[ Atlas.Mixed ] ~max_n () in
      Alcotest.(check int)
        (Printf.sprintf "n<=%d one mode" max_n)
        (count max_n * 2)
        (List.length single))
    [ 1; 2; 3 ];
  (* include_tts adds the class of the given function, deduplicated against
     the enumerated universe *)
  let base = Atlas.universe ~max_n:1 () in
  let xor3 = Tt.of_int 3 0b10010110 in
  let extra = Atlas.universe ~max_n:1 ~include_tts:[ xor3; xor3 ] () in
  Alcotest.(check int) "include_tts adds one class (2 targets x 2 modes)"
    (List.length base + 4)
    (List.length extra);
  let covered = Atlas.universe ~max_n:3 ~include_tts:[ xor3 ] () in
  Alcotest.(check int) "already-enumerated class deduplicates"
    (List.length (Atlas.universe ~max_n:3 ()))
    (List.length covered)

(* ---- build + lookup ---------------------------------------------------- *)

let test_build_and_stats () =
  let _, stats = Lazy.force built in
  Alcotest.(check int) "total goals" 24 stats.Atlas.total;
  Alcotest.(check int) "all built" 24 stats.Atlas.built;
  Alcotest.(check int) "none failed" 0 stats.Atlas.failed;
  let t = load_built () in
  Alcotest.(check int) "all records present" 24 (Atlas.size t);
  List.iter
    (fun r ->
      Alcotest.(check bool) "rops proven minimal" true r.Atlas.rops_exact;
      Alcotest.(check int) "built at effort 2" 2 r.Atlas.effort;
      if r.Atlas.mode = Atlas.R_only then begin
        Alcotest.(check int) "R-only records are legless" 0 r.Atlas.legs;
        Alcotest.(check bool) "taps normalized" true
          (r.Atlas.taps = E.Final_only)
      end)
    (Atlas.records t)

(* every 2-input function, both modes: find returns a verified circuit *)
let test_find_covers_whole_space () =
  let t = load_built () in
  for v = 0 to 15 do
    let f = Tt.of_int 2 v in
    List.iter
      (fun mode ->
        match Atlas.find t ~mode ~rop_kind:Rop.Nor ~taps:E.Any_vop f with
        | None ->
          Alcotest.failf "no atlas answer for %04x (%s)" v
            (Atlas.mode_to_string mode)
        | Some (c, r) ->
          Alcotest.(check bool)
            (Printf.sprintf "circuit realizes %04x" v)
            true
            (Circuit.realizes c (Spec.make ~name:"q" [| f |]) = Ok ());
          Alcotest.(check int) "record arity" 2 r.Atlas.arity)
      [ Atlas.Mixed; Atlas.R_only ]
  done;
  (* an uncovered arity misses instead of raising *)
  let f3 = Tt.of_int 3 0b10010110 in
  Alcotest.(check bool) "uncovered arity misses" true
    (Atlas.find t ~mode:Atlas.Mixed ~rop_kind:Rop.Nor ~taps:E.Any_vop f3
     = None)

(* resume: rebuilding at the same effort reuses everything; a lower-effort
   build is upgraded, not trusted *)
let test_resume_reuses_and_upgrades () =
  let path = tmp_path () in
  let goals = Atlas.universe ~max_n:1 ~modes:[ Atlas.Mixed ] () in
  (match Atlas.build ~effort:1 ~domains:1 ~path goals with
   | Ok s ->
     Alcotest.(check int) "tier-1 pass built" (List.length goals)
       (s.Atlas.built + s.Atlas.failed)
   | Error e -> Alcotest.failf "tier-1 build: %a" Atlas.pp_error e);
  (match Atlas.build ~effort:2 ~domains:1 ~timeout_per_call:10. ~path goals with
   | Ok s ->
     (* tier-1 records carry no optimality proof, so tier 2 re-solves *)
     Alcotest.(check int) "tier-1 records upgraded" (List.length goals)
       s.Atlas.built;
     Alcotest.(check int) "nothing reused across tiers" 0 s.Atlas.reused
   | Error e -> Alcotest.failf "tier-2 build: %a" Atlas.pp_error e);
  (match Atlas.build ~effort:2 ~domains:1 ~timeout_per_call:10. ~path goals with
   | Ok s ->
     Alcotest.(check int) "same tier fully reused" (List.length goals)
       s.Atlas.reused;
     Alcotest.(check int) "nothing re-solved" 0 s.Atlas.built
   | Error e -> Alcotest.failf "resume build: %a" Atlas.pp_error e);
  Sys.remove path

(* ---- integrity --------------------------------------------------------- *)

let flip_byte path pos =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let bytes = Bytes.of_string (really_input_string ic len) in
  close_in ic;
  let pos = if pos < 0 then len + pos else pos in
  Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 0xff));
  let oc = open_out_bin path in
  output_bytes oc bytes;
  close_out oc

let test_bit_flip_detected () =
  let path = copy_built () in
  flip_byte path (-40);
  (match Atlas.load path with
   | Error (Atlas.Damaged { dropped; _ }) ->
     Alcotest.(check bool) "at least one record dropped" true (dropped >= 1)
   | Error e -> Alcotest.failf "expected Damaged, got %a" Atlas.pp_error e
   | Ok _ -> Alcotest.fail "strict load accepted a flipped byte");
  (* info is tolerant: still summarizes, reports the damage *)
  (match Atlas.info path with
   | Ok i ->
     Alcotest.(check bool) "info reports damage" true (i.Atlas.i_damage <> None);
     Alcotest.(check bool) "info keeps readable records" true
       (i.Atlas.i_records > 0)
   | Error e -> Alcotest.failf "info should tolerate damage: %a" Atlas.pp_error e);
  (* verify fails listing the file-level issue *)
  (match Atlas.verify path with
   | Error issues ->
     Alcotest.(check bool) "verify reports issues" true (issues <> [])
   | Ok _ -> Alcotest.fail "verify accepted a flipped byte");
  Sys.remove path

let test_truncation_detected () =
  let path = copy_built () in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  let len = (Unix.fstat fd).Unix.st_size in
  Unix.ftruncate fd (len - 5);
  Unix.close fd;
  (match Atlas.load path with
   | Error (Atlas.Damaged { torn; _ }) ->
     Alcotest.(check bool) "torn tail flagged" true torn
   | Error e -> Alcotest.failf "expected Damaged, got %a" Atlas.pp_error e
   | Ok _ -> Alcotest.fail "strict load accepted a truncated file");
  Sys.remove path

let test_wrong_magic_and_missing () =
  let path = tmp_path () in
  Alcotest.(check bool) "missing file" true (Atlas.load path = Error Atlas.Missing);
  let oc = open_out_bin path in
  output_string oc "MMSYNTH-ENGINE-CACHE garbage";
  close_out oc;
  Alcotest.(check bool) "wrong magic" true
    (Atlas.load path = Error Atlas.Bad_header);
  Sys.remove path

let test_verify_clean () =
  let path, _ = Lazy.force built in
  match Atlas.verify path with
  | Ok n -> Alcotest.(check int) "verifies every record" 24 n
  | Error issues ->
    Alcotest.failf "clean atlas failed verify: %a" Atlas.pp_issue
      (List.hd issues)

(* ---- two-tier store + engine ------------------------------------------ *)

let run_sweep ?cache () =
  let cfg = Engine.config ~timeout_per_call:30. ~domains:1 ?cache () in
  Engine.run cfg (Engine.all_functions ~arity:2)

(* covered requests are answered entirely from the atlas: no SAT calls,
   no fallbacks, exact provenance on every result *)
let test_engine_zero_sat () =
  let cache = Cache.create () in
  Atlas.attach (load_built ()) cache;
  let results, summary = run_sweep ~cache () in
  Alcotest.(check int) "sat" 0 summary.Engine.sat;
  Alcotest.(check int) "atlas" 16 summary.Engine.atlas;
  Alcotest.(check int) "fallbacks" 0 summary.Engine.fallbacks;
  Alcotest.(check int) "solver calls" 0 summary.Engine.solver_calls;
  Alcotest.(check int) "unsat" 0 summary.Engine.unsat;
  (match summary.Engine.cache with
   | Some c ->
     Alcotest.(check bool) "atlas hits counted" true (c.Cache.atlas_hits > 0)
   | None -> Alcotest.fail "expected cache counters");
  Array.iter
    (fun r ->
      Alcotest.(check bool) "provenance atlas" true
        (r.Engine.provenance = Engine.From_atlas);
      Alcotest.(check bool) "marked optimal" true r.Engine.optimal;
      match r.Engine.circuit with
      | Some c ->
        Alcotest.(check bool) "circuit verifies" true
          (Circuit.realizes c r.Engine.spec = Ok ())
      | None -> Alcotest.fail "atlas result without a circuit")
    results

(* an atlas hit shadows the overlay: entries already in the overlay are
   not consulted (no overlay hits), and nothing new is stored *)
let test_atlas_shadows_overlay () =
  let cache = Cache.create () in
  (* populate the overlay the hard way *)
  let _, s1 = run_sweep ~cache () in
  Alcotest.(check bool) "seeded by solving" true (s1.Engine.sat > 0);
  let entries_before = (Cache.counters cache).Cache.entries in
  Alcotest.(check bool) "overlay has entries" true (entries_before > 0);
  Atlas.attach (load_built ()) cache;
  let _, s2 = run_sweep ~cache () in
  Alcotest.(check int) "all answered by atlas" 16 s2.Engine.atlas;
  (match s2.Engine.cache with
   | Some c ->
     Alcotest.(check int) "overlay not consulted" 0 c.Cache.hits;
     Alcotest.(check int) "overlay unchanged" entries_before c.Cache.entries
   | None -> Alcotest.fail "expected cache counters")

(* atlas misses (uncovered arity) fall through to solve-and-store *)
let test_miss_falls_through () =
  let cache = Cache.create () in
  Atlas.attach (load_built ()) cache;
  let cfg = Engine.config ~timeout_per_call:30. ~domains:1 ~cache () in
  let spec = Spec.make ~name:"xor3" [| Tt.of_int 3 0b10010110 |] in
  let results, summary = Engine.run cfg [| spec |] in
  Alcotest.(check int) "atlas cannot answer n=3" 0 summary.Engine.atlas;
  Alcotest.(check int) "solved exactly" 1 summary.Engine.sat;
  Alcotest.(check bool) "solver actually ran" true
    (summary.Engine.solver_calls > 0);
  Alcotest.(check bool) "provenance exact" true
    (results.(0).Engine.provenance = Engine.Exact);
  (* the solve was stored in the overlay *)
  Alcotest.(check bool) "overlay gained entries" true
    ((Cache.counters cache).Cache.entries > 0)

(* a damaged atlas is refused by strict load; the overlay path still works *)
let test_damaged_atlas_degrades () =
  let path = copy_built () in
  flip_byte path (-40);
  (match Atlas.load path with
   | Ok _ -> Alcotest.fail "strict load must refuse a damaged atlas"
   | Error _ -> ());
  (* overlay-only run: everything still gets answered, by the solver *)
  let cache = Cache.create () in
  let _, summary = run_sweep ~cache () in
  Alcotest.(check int) "no atlas tier" 0 summary.Engine.atlas;
  Alcotest.(check int) "solver answers all" 16 summary.Engine.sat;
  Sys.remove path

(* the engine enforces search caps through the atlas hook: a stored
   minimal count above the cap must miss, and the engine then proves the
   capped verdict itself *)
let test_caps_respected () =
  let cache = Cache.create () in
  Atlas.attach (load_built ()) cache;
  let xor2 = Spec.make ~name:"xor2" [| Tt.of_int 2 0b0110 |] in
  (* xor2 needs at least one R-op; cap at 0 must not serve the record *)
  let cfg = Engine.config ~timeout_per_call:30. ~domains:1 ~max_rops:0 ~cache () in
  let results, summary = Engine.run cfg [| xor2 |] in
  Alcotest.(check int) "capped query not atlas-answered" 0 summary.Engine.atlas;
  Alcotest.(check bool) "engine proved capped UNSAT" true
    (results.(0).Engine.circuit = None && results.(0).Engine.error = None)

(* a record whose circuit does not realize its target is a miss, never a
   hit that fails verification: here every record holds the circuit of
   another target of its mode and arity, and the solver answers every
   function exactly, on the batch path and the probe path alike *)
let test_foreign_record_is_a_miss () =
  let src, _ = Lazy.force built in
  let records = ref [] in
  (match
     Mm_engine.Record_file.read ~magic:Atlas.magic
       ~version:Atlas.format_version src
       (fun (kr : string * Atlas.record) -> records := kr :: !records)
   with
   | Mm_engine.Record_file.Read { dropped = 0; torn = false; _ } -> ()
   | _ -> Alcotest.fail "built atlas unreadable");
  let tampered =
    List.concat_map
      (fun kind ->
        let same =
          List.filter
            (fun (_, (r : Atlas.record)) -> (r.mode, r.arity) = kind)
            (List.sort compare !records)
        in
        match same with
        | [] -> []
        | (_, first) :: _ ->
          (* each record takes the next one's circuit, the last the first's *)
          List.mapi
            (fun i (k, (r : Atlas.record)) ->
              let donor =
                match List.nth_opt same (i + 1) with
                | Some (_, d) -> d
                | None -> first
              in
              (k, { r with circuit = donor.circuit }))
            same)
      (List.sort_uniq compare
         (List.map (fun (_, (r : Atlas.record)) -> (r.mode, r.arity)) !records))
  in
  let path = tmp_path () in
  Mm_engine.Record_file.write ~magic:Atlas.magic ~version:Atlas.format_version
    path (fun emit -> List.iter emit tampered);
  let atlas =
    match Atlas.load path with
    | Ok t -> t
    | Error e -> Alcotest.failf "load failed: %a" Atlas.pp_error e
  in
  let cache = Cache.create () in
  Atlas.attach atlas cache;
  let results, summary = run_sweep ~cache () in
  Alcotest.(check int) "no atlas answer" 0 summary.Engine.atlas;
  Alcotest.(check int) "solver answers all" 16 summary.Engine.sat;
  Array.iter
    (fun r ->
      Alcotest.(check bool) "exact, no error" true
        (r.Engine.provenance = Engine.Exact && r.Engine.error = None))
    results;
  let probe_cache = Cache.create () in
  Atlas.attach atlas probe_cache;
  let xor2 = Spec.make ~name:"xor2" [| Tt.of_int 2 0b0110 |] in
  (match
     Engine.probe_class
       (Engine.config ~timeout_per_call:30. ~domains:1 ~cache:probe_cache ())
       xor2
   with
   | Some p -> Alcotest.(check bool) "probe exact" true p.Engine.probe_exact
   | None -> Alcotest.fail "probe gave no circuit");
  Alcotest.(check int) "no atlas hit counted" 0
    (Cache.counters probe_cache).Cache.atlas_hits;
  Sys.remove path

let () =
  Alcotest.run "atlas"
    [
      ( "universe",
        [ Alcotest.test_case "goal counts and dedup" `Quick test_universe_counts ]
      );
      ( "build",
        [
          Alcotest.test_case "build stats and record honesty" `Slow
            test_build_and_stats;
          Alcotest.test_case "find covers the whole space" `Slow
            test_find_covers_whole_space;
          Alcotest.test_case "resume reuses and upgrades" `Slow
            test_resume_reuses_and_upgrades;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "bit flip detected" `Slow test_bit_flip_detected;
          Alcotest.test_case "truncation detected" `Slow
            test_truncation_detected;
          Alcotest.test_case "wrong magic and missing" `Quick
            test_wrong_magic_and_missing;
          Alcotest.test_case "verify accepts a clean build" `Slow
            test_verify_clean;
        ] );
      ( "two-tier store",
        [
          Alcotest.test_case "zero-SAT serve path" `Slow test_engine_zero_sat;
          Alcotest.test_case "atlas shadows overlay" `Slow
            test_atlas_shadows_overlay;
          Alcotest.test_case "miss falls through to solve-and-store" `Slow
            test_miss_falls_through;
          Alcotest.test_case "damaged atlas degrades to overlay-only" `Slow
            test_damaged_atlas_degrades;
          Alcotest.test_case "search caps respected" `Slow test_caps_respected;
          Alcotest.test_case "foreign record is a miss" `Quick
            test_foreign_record_is_a_miss;
        ] );
    ]
