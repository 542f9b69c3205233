module Engine = Mm_engine.Engine
module Atlas = Mm_atlas.Atlas
module Cache = Mm_engine.Cache
module Npn = Mm_engine.Npn
module Fault = Mm_engine.Fault
module Synth = Mm_core.Synth
module C = Mm_core.Circuit
module Spec = Mm_boolfun.Spec
module Tt = Mm_boolfun.Truth_table

let tmp_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mm_engine_test_%d_%d.cache" (Unix.getpid ()) !counter)

let fail_to_string = function
  | Engine.Crashed { exn; _ } -> "crashed: " ^ exn
  | Engine.Verify_failed { row } -> Printf.sprintf "verify failed on row %d" row

let check_all_verified results =
  Array.iter
    (fun r ->
      (match r.Engine.error with
       | Some e ->
         Alcotest.failf "%s: %s" (Spec.name r.Engine.spec) (fail_to_string e)
       | None -> ());
      Alcotest.(check bool)
        (Spec.name r.Engine.spec ^ " solved exactly")
        true
        (r.Engine.provenance = Engine.Exact);
      match r.Engine.circuit with
      | None -> Alcotest.failf "%s: no circuit" (Spec.name r.Engine.spec)
      | Some c ->
        Alcotest.(check bool)
          (Spec.name r.Engine.spec ^ " verifies")
          true
          (C.realizes c r.Engine.spec = Ok ()))
    results

let test_full_2_input_space () =
  let specs = Engine.all_functions ~arity:2 in
  let cfg = Engine.config ~timeout_per_call:30. ~domains:2 () in
  let results, summary = Engine.run cfg specs in
  Alcotest.(check int) "functions" 16 summary.Engine.functions;
  Alcotest.(check int) "all sat" 16 summary.Engine.sat;
  (* 4 NPN classes, at most one job per polarity each *)
  Alcotest.(check bool) "class sharing"
    true
    (summary.Engine.classes >= 4 && summary.Engine.classes <= 8);
  check_all_verified results;
  (* every member of a shared class reuses its representative's job *)
  Alcotest.(check bool) "some sharing happened" true
    (Array.exists (fun r -> r.Engine.shared) results)

let test_npn_consistency_with_direct_solve () =
  (* the engine's class-shared answer must match a direct minimize: same
     verdict and same minimal (N_R, N_VS) *)
  let f = Tt.of_int 3 0b10010110 (* 3-input parity *) in
  let spec = Spec.make ~name:"xor3" [| f |] in
  let direct = Synth.minimize ~timeout_per_call:30. spec in
  let results, _ = Engine.run (Engine.config ~timeout_per_call:30. ~domains:1 ()) [| spec |] in
  match (direct.Synth.best, results.(0).Engine.report.Synth.best) with
  | Some (_, a), Some (_, b) ->
    Alcotest.(check int) "same N_R" a.Synth.n_rops b.Synth.n_rops;
    Alcotest.(check int) "same N_VS" a.Synth.steps_per_leg b.Synth.steps_per_leg
  | _ -> Alcotest.fail "both should find circuits"

let test_cache_across_runs () =
  let path = tmp_path () in
  let specs = Engine.all_functions ~arity:2 in
  let run () =
    let cache = Cache.create ~path () in
    let cfg = Engine.config ~timeout_per_call:30. ~domains:2 ~cache () in
    Engine.run cfg specs
  in
  let _, cold = run () in
  let results, warm = run () in
  check_all_verified results;
  (match (cold.Engine.cache, warm.Engine.cache) with
   | Some c, Some w ->
     Alcotest.(check bool) "cold run has misses" true (c.Cache.misses > 0);
     Alcotest.(check int) "warm run misses nothing" 0 w.Cache.misses;
     Alcotest.(check int) "warm run solves nothing" 0 w.Cache.stale;
     Alcotest.(check bool) "warm hit rate 100%" true (w.Cache.hits > 0)
   | _ -> Alcotest.fail "cache counters missing");
  Sys.remove path

let test_no_npn_ablation () =
  (* with sharing off, every function is its own class *)
  let specs = Array.sub (Engine.all_functions ~arity:2) 0 6 in
  let cfg = Engine.config ~timeout_per_call:30. ~domains:1 ~canonicalize:false () in
  let results, summary = Engine.run cfg specs in
  Alcotest.(check int) "no sharing" 6 summary.Engine.classes;
  Alcotest.(check bool) "nobody shared" false
    (Array.exists (fun r -> r.Engine.shared) results);
  check_all_verified results

let test_multi_output_passthrough () =
  (* multi-output specs skip canonicalization but still run and verify *)
  let spec =
    Spec.of_fun ~name:"half-adder" ~arity:2 ~outputs:2 (fun ~row ~output ->
        let a = row land 1 and b = (row lsr 1) land 1 in
        if output = 0 then (a lxor b) = 1 else a land b = 1)
  in
  let results, summary =
    Engine.run (Engine.config ~timeout_per_call:30. ~domains:1 ()) [| spec |]
  in
  Alcotest.(check int) "sat" 1 summary.Engine.sat;
  Alcotest.(check bool) "not canonicalized" true
    (results.(0).Engine.class_rep = None);
  check_all_verified results

(* --- the library probe API (Mm_map's cost oracle) --- *)

let test_probe_hit () =
  (* first probe misses and stores; an identical probe answers entirely
     from cache (hits, no misses, no stale) *)
  let cache = Cache.create () in
  let cfg = Engine.config ~timeout_per_call:30. ~cache () in
  let spec = Spec.make ~name:"and3" [| Tt.(var 3 1 &&& var 3 2 &&& var 3 3) |] in
  (match Engine.probe_class cfg spec with
   | None -> Alcotest.fail "first probe failed"
   | Some p ->
     Alcotest.(check bool) "exact" true p.Engine.probe_exact;
     Alcotest.(check bool) "optimal" true p.Engine.probe_optimal;
     Alcotest.(check bool) "verifies" true
       (C.realizes p.Engine.probe_circuit spec = Ok ()));
  let cold = Cache.counters cache in
  Alcotest.(check bool) "miss-then-store populated" true
    (cold.Cache.misses > 0 && cold.Cache.entries > 0);
  Cache.reset_counters cache;
  (match Engine.probe_class cfg spec with
   | None -> Alcotest.fail "second probe failed"
   | Some p ->
     Alcotest.(check bool) "still verifies" true
       (C.realizes p.Engine.probe_circuit spec = Ok ()));
  let warm = Cache.counters cache in
  Alcotest.(check bool) "warm probe hits" true (warm.Cache.hits > 0);
  Alcotest.(check int) "warm probe misses nothing" 0 warm.Cache.misses;
  Alcotest.(check int) "warm probe never stale" 0 warm.Cache.stale

let test_probe_stale_timeout () =
  (* a TIMEOUT record stored under a starvation budget must not satisfy a
     later probe with a real budget: the reuse rule counts it stale *)
  let cache = Cache.create () in
  let spec = Spec.make ~name:"xor3" [| Tt.of_int 3 0x96 |] in
  let starved = Engine.config ~timeout_per_call:1e-5 ~cache () in
  ignore (Engine.probe_class starved spec);
  let cold = Cache.counters cache in
  Alcotest.(check bool) "timeout records stored" true (cold.Cache.entries > 0);
  Cache.reset_counters cache;
  let real = Engine.config ~timeout_per_call:10. ~cache () in
  (match Engine.probe_class real spec with
   | None -> Alcotest.fail "real-budget probe failed"
   | Some p ->
     Alcotest.(check bool) "verifies" true
       (C.realizes p.Engine.probe_circuit spec = Ok ()));
  let warm = Cache.counters cache in
  Alcotest.(check bool) "starved records are stale" true
    (warm.Cache.stale > 0)

let test_probe_r_only () =
  let cfg = Engine.config ~timeout_per_call:30. () in
  let spec = Spec.make ~name:"or3" [| Tt.(var 3 1 ||| var 3 2 ||| var 3 3) |] in
  match Engine.probe_class ~r_only:true cfg spec with
  | None -> Alcotest.fail "r_only probe failed"
  | Some p ->
    Alcotest.(check int) "no legs" 0 (C.n_legs p.Engine.probe_circuit);
    Alcotest.(check bool) "verifies" true
      (C.realizes p.Engine.probe_circuit spec = Ok ())

(* The batch driver and the library probe are one resolver: on every
   3-input function they give the same (N_R, N_VS) and optimality flag.
   With the shipped atlas attached both answer everything from it, with no
   solver attempt; with the solver forced to give up, both hand out the
   same baseline fallback. *)
let test_run_and_probe_agree () =
  let specs = Engine.all_functions ~arity:3 in
  let atlas =
    match Atlas.load "../examples/atlas-tier1.mmatlas" with
    | Ok a -> a
    | Error e -> Alcotest.failf "atlas: %a" Atlas.pp_error e
  in
  let dims c = (C.n_rops c, C.steps_per_leg c) in
  let agree ~with_atlas ?fault ?fallback () =
    let cache () =
      let c = Cache.create () in
      if with_atlas then Atlas.attach atlas c;
      c
    in
    let config cache = Engine.config ~domains:1 ~cache ?fault ?fallback () in
    let results, _ = Engine.run (config (cache ())) specs in
    let probe_cache = cache () in
    Array.iteri
      (fun i r ->
        let name = Spec.name specs.(i) in
        match (r.Engine.circuit, Engine.probe_class (config probe_cache) specs.(i)) with
        | Some c, Some p ->
          Alcotest.(check (pair int int)) (name ^ " (N_R, N_VS)") (dims c)
            (dims p.Engine.probe_circuit);
          Alcotest.(check bool) (name ^ " optimal") r.Engine.optimal
            p.Engine.probe_optimal;
          Alcotest.(check bool) (name ^ " exact")
            (match r.Engine.provenance with
             | Engine.Exact | Engine.From_atlas -> true
             | Engine.Via_baseline | Engine.Via_heuristic -> false)
            p.Engine.probe_exact;
          if with_atlas then begin
            Alcotest.(check bool) (name ^ " run from the atlas") true
              (r.Engine.provenance = Engine.From_atlas
              && r.Engine.report.Synth.attempts = []);
            Alcotest.(check bool) (name ^ " probe from the atlas") true
              (p.Engine.probe_exact && p.Engine.probe_report.Synth.attempts = [])
          end
        | _ -> Alcotest.failf "%s: a path gave no circuit" name)
      results;
    if with_atlas then
      Alcotest.(check int) "every probe an atlas hit" 256
        (Cache.counters probe_cache).Cache.atlas_hits
  in
  agree ~with_atlas:false ();
  agree ~with_atlas:true ();
  agree ~with_atlas:false ~fallback:Engine.Use_baseline
    ~fault:(Fault.create ~seed:1 [ Fault.rule Fault.Solver 1.0 Fault.Unknown_result ])
    ()

(* [lookup] is [run] with the solver left out: on every 3-input function,
   answered from the shipped atlas or from an overlay one [run] warmed, it
   answers, and its answer is [run]'s — the same circuit, provenance,
   optimality and outcome — and its summary is that of a [run] of the one
   spec, wall times aside. With a fault plan, with no cache, for a spec
   wider than 4 inputs or from a cold overlay it answers nothing, as every
   injection point and every solve belongs to [run]. *)
let test_lookup_agrees_with_run () =
  let specs = Engine.all_functions ~arity:3 in
  let atlas =
    match Atlas.load "../examples/atlas-tier1.mmatlas" with
    | Ok a -> a
    | Error e -> Alcotest.failf "atlas: %a" Atlas.pp_error e
  in
  let counts (s : Engine.summary) =
    { s with Engine.wall_s = 0.; solves_per_s = 0.; props_per_s = 0. }
  in
  let agree label cfg results =
    Array.iteri
      (fun i (r : Engine.job_result) ->
        let name = label ^ " " ^ Spec.name specs.(i) in
        let _, one = Engine.run cfg [| specs.(i) |] in
        match Engine.lookup cfg specs.(i) with
        | None -> Alcotest.failf "%s: lookup gave no answer" name
        | Some (l, summary) ->
          Alcotest.(check bool) (name ^ " summary") true
            (counts summary = counts one);
          Alcotest.(check bool) (name ^ " circuit") true
            (l.Engine.circuit = r.Engine.circuit);
          Alcotest.(check bool) (name ^ " provenance") true
            (l.Engine.provenance = r.Engine.provenance);
          Alcotest.(check bool) (name ^ " optimal") r.Engine.optimal
            l.Engine.optimal;
          Alcotest.(check bool) (name ^ " outcome") true
            (Engine.outcome l = Engine.outcome r))
      results
  in
  let atlas_cache = Cache.create () in
  Atlas.attach atlas atlas_cache;
  let cfg = Engine.config ~domains:1 ~cache:atlas_cache () in
  let results, _ = Engine.run cfg specs in
  agree "atlas" cfg results;
  Alcotest.(check bool) "every atlas answer from the atlas" true
    (Array.for_all (fun r -> r.Engine.provenance = Engine.From_atlas) results);
  (* a lookup resets the counters like a run: they hold its one probe *)
  Alcotest.(check int) "one atlas probe" 1
    (Cache.counters atlas_cache).Cache.atlas_hits;
  let overlay = Cache.create () in
  let cfg = Engine.config ~domains:1 ~cache:overlay () in
  let results, summary = Engine.run cfg specs in
  Alcotest.(check int) "the warming run solved" 256 summary.Engine.sat;
  let entries = (Cache.counters overlay).Cache.entries in
  agree "overlay" cfg results;
  Alcotest.(check int) "lookups store nothing" entries
    (Cache.counters overlay).Cache.entries;
  let silent label cfg =
    Array.iter
      (fun s ->
        Alcotest.(check bool) (label ^ " " ^ Spec.name s) true
          (Engine.lookup cfg s = None))
      specs
  in
  silent "no cache" (Engine.config ~domains:1 ());
  silent "fault plan"
    (Engine.config ~domains:1 ~cache:atlas_cache
       ~fault:(Fault.create ~seed:1 [ Fault.rule Fault.Solver 0. Fault.Crash ])
       ());
  (* a wide spec is declined before its R-op bound is computed (a random
     12-input function's takes tens of seconds) *)
  let wide =
    let st = Random.State.make [| 12 |] in
    Spec.of_fun ~name:"wide12" ~arity:12 ~outputs:1 (fun ~row:_ ~output:_ ->
        Random.State.bool st)
  in
  let t0 = Unix.gettimeofday () in
  Alcotest.(check bool) "a 12-input spec is no answer" true
    (Engine.lookup cfg wide = None);
  Alcotest.(check bool) "declined at once" true
    (Unix.gettimeofday () -. t0 < 1.0);
  (* an overlay that lacks a point is no answer: nothing is solved *)
  let cold = Cache.create () in
  Alcotest.(check bool) "cold overlay" true
    (Engine.lookup (Engine.config ~domains:1 ~cache:cold ()) specs.(0x96)
     = None);
  Alcotest.(check int) "cold overlay stays empty" 0
    (Cache.counters cold).Cache.entries

(* The shared stats schema: v5 keeps the solver counters, restarts
   included, and carries exactly these fields, so the clause-sharing
   counter of v4 is gone. *)
let test_stats_schema () =
  let module Json = Mm_report.Json in
  let j = Engine.stats_to_json Engine.empty_summary in
  Alcotest.(check (option string)) "schema" (Some "mmsynth-stats-v5")
    (Option.bind (Json.member "schema" j) Json.to_str);
  Alcotest.(check (option int)) "restarts present" (Some 0)
    (Option.bind (Json.member "restarts" j) Json.to_int);
  Alcotest.(check (list string)) "fields"
    [ "schema"; "functions"; "classes"; "sat"; "atlas"; "unsat"; "timeout";
      "fallbacks"; "retries_used"; "deadline_hit"; "wall_s"; "solves_per_s";
      "solver_calls"; "propagations"; "restarts"; "peak_learnts";
      "props_per_s"; "cache" ]
    (match j with Json.Obj kvs -> List.map fst kvs | _ -> [])

(* The heuristic fallback honours final taps: it solves its blocks under
   them, so every 3-input function gets a heuristic circuit that taps no
   leg mid-way, never one thrown away for the baseline. *)
let test_heuristic_fallback_final_taps () =
  let cfg =
    Engine.config ~taps:Mm_core.Encode.Final_only ~timeout_per_call:1.0
      ~fallback:Engine.Use_heuristic ()
  in
  for v = 0 to 255 do
    let spec = Spec.make ~name:(Printf.sprintf "%02x" v) [| Tt.of_int 3 v |] in
    match Engine.fallback cfg spec with
    | Some (c, Engine.Via_heuristic)
      when C.final_taps_only c && C.realizes c spec = Ok () -> ()
    | Some (_, Engine.Via_heuristic) ->
      Alcotest.failf "%02x: a heuristic circuit that breaks the rule" v
    | Some _ -> Alcotest.failf "%02x: the heuristic gave way" v
    | None -> Alcotest.failf "%02x: no fallback circuit" v
  done

let () =
  Alcotest.run "engine"
    [
      ( "engine",
        [
          Alcotest.test_case "full 2-input space" `Quick test_full_2_input_space;
          Alcotest.test_case "matches direct minimize" `Quick
            test_npn_consistency_with_direct_solve;
          Alcotest.test_case "cache across runs" `Quick test_cache_across_runs;
          Alcotest.test_case "no-NPN ablation" `Quick test_no_npn_ablation;
          Alcotest.test_case "multi-output passthrough" `Quick
            test_multi_output_passthrough;
          Alcotest.test_case "stats schema v5" `Quick test_stats_schema;
          Alcotest.test_case "heuristic fallback keeps final taps" `Quick
            test_heuristic_fallback_final_taps;
        ] );
      ( "probe",
        [
          Alcotest.test_case "hit / miss-then-store" `Quick test_probe_hit;
          Alcotest.test_case "stale TIMEOUT record" `Quick
            test_probe_stale_timeout;
          Alcotest.test_case "r_only" `Quick test_probe_r_only;
          Alcotest.test_case "run and probe agree" `Quick
            test_run_and_probe_agree;
          Alcotest.test_case "lookup agrees with run" `Quick
            test_lookup_agrees_with_run;
        ] );
    ]
