module Engine = Mm_engine.Engine
module Cache = Mm_engine.Cache
module Fault = Mm_engine.Fault
module Deadline = Mm_engine.Deadline
module Synth = Mm_core.Synth
module C = Mm_core.Circuit
module Spec = Mm_boolfun.Spec

let tmp_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mm_fault_test_%d_%d.cache" (Unix.getpid ()) !counter)

(* ------------------------------------------------------------------ *)
(* Fault plan semantics                                                *)
(* ------------------------------------------------------------------ *)

let test_decide_determinism () =
  let mk seed =
    Fault.create ~seed [ Fault.rule Fault.Worker 0.5 Fault.Crash ]
  in
  let a = mk 7 and b = mk 7 and other = mk 8 in
  let differs = ref false in
  for i = 0 to 199 do
    let key = Printf.sprintf "job%d/try0" i in
    Alcotest.(check bool) key true
      (Fault.decide a ~stage:Fault.Worker ~key
       = Fault.decide b ~stage:Fault.Worker ~key);
    if
      Fault.decide a ~stage:Fault.Worker ~key
      <> Fault.decide other ~stage:Fault.Worker ~key
    then differs := true
  done;
  Alcotest.(check bool) "seed changes the firing pattern" true !differs

let test_decide_rates () =
  let count rate =
    let plan = Fault.create ~seed:3 [ Fault.rule Fault.Worker rate Fault.Crash ] in
    let fired = ref 0 in
    for i = 0 to 999 do
      let key = Printf.sprintf "job%d/try0" i in
      if Fault.decide plan ~stage:Fault.Worker ~key <> None then incr fired
    done;
    !fired
  in
  Alcotest.(check int) "rate 0 never fires" 0 (count 0.);
  Alcotest.(check int) "rate 1 always fires" 1000 (count 1.);
  let c = count 0.3 in
  Alcotest.(check bool) "rate 0.3 fires ~30% of keys" true
    (c > 150 && c < 450)

let test_stage_and_only_filters () =
  let plan =
    Fault.create ~seed:1
      [ Fault.rule ~only:"job3/" Fault.Worker 1.0 Fault.Crash ]
  in
  Alcotest.(check bool) "matching stage+key fires" true
    (Fault.decide plan ~stage:Fault.Worker ~key:"job3/try0" <> None);
  Alcotest.(check bool) "other key silent" true
    (Fault.decide plan ~stage:Fault.Worker ~key:"job4/try0" = None);
  Alcotest.(check bool) "prefix collision avoided" true
    (Fault.decide plan ~stage:Fault.Worker ~key:"job13/try0" = None);
  Alcotest.(check bool) "other stage silent" true
    (Fault.decide plan ~stage:Fault.Solver ~key:"job3/try0" = None)

let test_guard_and_unknown () =
  let plan =
    Fault.create ~seed:1
      [
        Fault.rule ~only:"crash" Fault.Worker 1.0 Fault.Crash;
        Fault.rule ~only:"slow" Fault.Worker 1.0 (Fault.Delay 0.005);
        Fault.rule ~only:"unk" Fault.Solver 1.0 Fault.Unknown_result;
      ]
  in
  (match
     Fault.guard (Some plan) ~stage:Fault.Worker ~key:"crash-here" (fun () -> 1)
   with
   | _ -> Alcotest.fail "injected crash should raise"
   | exception Fault.Injected _ -> ());
  Alcotest.(check int) "delay proceeds to the body" 2
    (Fault.guard (Some plan) ~stage:Fault.Worker ~key:"slow-path" (fun () -> 2));
  Alcotest.(check int) "no plan is a no-op" 3
    (Fault.guard None ~stage:Fault.Worker ~key:"crash-here" (fun () -> 3));
  Alcotest.(check bool) "forced unknown fires" true
    (Fault.forced_unknown (Some plan) ~stage:Fault.Solver ~key:"unk-job");
  Alcotest.(check bool) "forced unknown respects stage" false
    (Fault.forced_unknown (Some plan) ~stage:Fault.Worker ~key:"unk-job")

let test_parse_spec () =
  (match Fault.parse_spec "worker:0.3,solver:0.1" with
   | Ok rules -> Alcotest.(check int) "two rules" 2 (List.length rules)
   | Error e -> Alcotest.failf "should parse: %s" e);
  (match Fault.parse_spec "reactor:0.5" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown stage must be rejected");
  (match Fault.parse_spec "kill:1.0" with
   | Ok rules ->
     let plan = Fault.create ~seed:0 rules in
     Alcotest.(check bool) "kill parses to a Conn-stage Kill" true
       (Fault.decide plan ~stage:Fault.Conn ~key:"conn0/req0"
        = Some Fault.Kill)
   | Error e -> Alcotest.failf "kill should parse: %s" e);
  (match Fault.parse_spec "partition:1.0" with
   | Ok rules ->
     let plan = Fault.create ~seed:0 rules in
     Alcotest.(check bool) "partition parses to a Conn-stage Refuse" true
       (Fault.decide plan ~stage:Fault.Conn ~key:"accept/conn0"
        = Some Fault.Refuse)
   | Error e -> Alcotest.failf "partition should parse: %s" e);
  match Fault.parse_spec "worker:lots" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-numeric rate must be rejected"

(* ------------------------------------------------------------------ *)
(* Deadline manager                                                    *)
(* ------------------------------------------------------------------ *)

let test_deadline_unbounded () =
  let d = Deadline.create ~pending:4 ~default_per_call:7.5 () in
  Alcotest.(check bool) "no wall: full budget" true
    (Deadline.claim d = Some 7.5);
  Alcotest.(check bool) "never expires" false (Deadline.expired d);
  Alcotest.(check bool) "remaining is None" true (Deadline.remaining d = None)

let test_deadline_split () =
  let d = Deadline.create ~wall:10. ~pending:4 ~default_per_call:100. () in
  (match Deadline.claim d with
   | Some b ->
     Alcotest.(check bool) "10s over 4 pending is ~2.5s" true
       (b > 2.0 && b <= 2.5)
   | None -> Alcotest.fail "budget should be granted");
  Deadline.finish d;
  Deadline.finish d;
  Deadline.finish d;
  (match Deadline.claim d with
   | Some b ->
     Alcotest.(check bool) "last claimant inherits the remainder" true
       (b > 5.0 && b <= 10.0)
   | None -> Alcotest.fail "budget should be granted");
  (* the per-call default still caps the grant *)
  let capped = Deadline.create ~wall:100. ~pending:2 ~default_per_call:1. () in
  Alcotest.(check bool) "capped by default_per_call" true
    (Deadline.claim capped = Some 1.)

let test_deadline_expiry () =
  let d = Deadline.create ~wall:0.001 ~pending:4 ~default_per_call:10. () in
  Unix.sleepf 0.01;
  Alcotest.(check bool) "expired" true (Deadline.expired d);
  Alcotest.(check bool) "claims refused" true (Deadline.claim d = None)

(* ------------------------------------------------------------------ *)
(* The acceptance scenario: crashing jobs + a corrupt cache +          *)
(* forced solver unknowns, and the batch still answers every spec.     *)
(* ------------------------------------------------------------------ *)

let check_circuit r =
  match r.Engine.circuit with
  | Some c ->
    Alcotest.(check bool)
      (Spec.name r.Engine.spec ^ " verifies on all rows")
      true
      (C.realizes c r.Engine.spec = Ok ())
  | None -> Alcotest.failf "%s left unanswered" (Spec.name r.Engine.spec)

let test_batch_survives_faults () =
  let path = tmp_path () in
  (* plant a damaged cache file where the engine expects its cache *)
  let oc = open_out_bin path in
  output_string oc "garbage that is definitely not a cache file";
  close_out oc;
  let cache = Cache.create ~path () in
  let quarantined =
    match Cache.load_result cache with
    | Cache.Corrupt { quarantined = Some q } -> q
    | _ -> Alcotest.fail "corrupt cache should be quarantined"
  in
  (* with canonicalize:false on a full sweep, job [j] solves spec [j] *)
  let fault =
    Fault.create ~seed:42
      [
        (* crashes on the first attempt only: the retry round rescues it *)
        Fault.rule ~only:"job2/try0" Fault.Worker 1.0 Fault.Crash;
        (* the solver never answers: must degrade to a fallback circuit *)
        Fault.rule ~only:"job5/" Fault.Solver 1.0 Fault.Unknown_result;
        (* crashes on every attempt: fallback + the crash kept on record *)
        Fault.rule ~only:"job7/" Fault.Worker 1.0 Fault.Crash;
      ]
  in
  let specs = Engine.all_functions ~arity:2 in
  let cfg =
    Engine.config ~timeout_per_call:30. ~domains:2 ~canonicalize:false ~cache
      ~retries:1 ~retry_backoff_s:0.001 ~fallback:Engine.Use_baseline ~fault ()
  in
  let results, summary = Engine.run cfg specs in
  (* every spec leaves the batch with a verified circuit *)
  Alcotest.(check int) "batch size" 16 (Array.length results);
  Array.iter check_circuit results;
  (* job 2: one crash, retried, exact again *)
  Alcotest.(check bool) "job2 exact after retry" true
    (results.(2).Engine.provenance = Engine.Exact);
  Alcotest.(check bool) "job2 error cleared by the retry" true
    (results.(2).Engine.error = None);
  Alcotest.(check bool) "retries were used" true
    (summary.Engine.retries_used >= 1);
  (* job 5: injected Unknown, rescued by a non-optimal baseline circuit *)
  Alcotest.(check bool) "job5 degraded to baseline" true
    (results.(5).Engine.provenance = Engine.Via_baseline);
  Alcotest.(check bool) "job5 makes no optimality claim" false
    results.(5).Engine.optimal;
  (* job 7: crashed through every retry; rescued, crash kept for diagnosis *)
  Alcotest.(check bool) "job7 degraded to baseline" true
    (results.(7).Engine.provenance = Engine.Via_baseline);
  (match results.(7).Engine.error with
   | Some (Engine.Crashed { exn; _ }) ->
     Alcotest.(check bool) "crash text retained" true
       (String.length exn > 0)
   | _ -> Alcotest.fail "job7 must record its crash");
  Alcotest.(check bool) "fallbacks counted" true (summary.Engine.fallbacks >= 2);
  Alcotest.(check int) "accounting covers every spec" 16
    (summary.Engine.sat + summary.Engine.unsat + summary.Engine.timeout);
  Alcotest.(check bool) "damaged cache quarantined, not trusted" true
    (Sys.file_exists quarantined);
  Sys.remove quarantined;
  if Sys.file_exists path then Sys.remove path

let test_deadline_starvation_degrades () =
  (* a deadline that is gone before any job starts: the entire batch must
     still complete, every spec rescued by a verified baseline circuit *)
  let specs = Engine.all_functions ~arity:2 in
  let cfg =
    Engine.config ~timeout_per_call:30. ~domains:2 ~canonicalize:false
      ~deadline:1e-6 ~retries:0 ~fallback:Engine.Use_baseline ()
  in
  let results, summary = Engine.run cfg specs in
  Alcotest.(check bool) "deadline reported" true summary.Engine.deadline_hit;
  Alcotest.(check int) "no exact answers" 0 summary.Engine.sat;
  Alcotest.(check int) "all starved specs counted as timeouts" 16
    summary.Engine.timeout;
  Alcotest.(check int) "every spec rescued" 16 summary.Engine.fallbacks;
  Array.iter
    (fun r ->
      Alcotest.(check bool) "baseline provenance" true
        (r.Engine.provenance = Engine.Via_baseline);
      Alcotest.(check bool) "no optimality claim" false r.Engine.optimal;
      check_circuit r)
    results

let test_no_fallback_leaves_unanswered () =
  (* same starvation without a fallback: specs stay unanswered, nothing
     raises, and nothing is mislabeled as UNSAT *)
  let specs = Array.sub (Engine.all_functions ~arity:2) 0 4 in
  let cfg =
    Engine.config ~timeout_per_call:30. ~domains:1 ~canonicalize:false
      ~deadline:1e-6 ~retries:0 ~fallback:Engine.No_fallback ()
  in
  let results, summary = Engine.run cfg specs in
  Alcotest.(check int) "no fallbacks" 0 summary.Engine.fallbacks;
  Alcotest.(check int) "no UNSAT claims" 0 summary.Engine.unsat;
  Alcotest.(check int) "all timeouts" 4 summary.Engine.timeout;
  Array.iter
    (fun r ->
      Alcotest.(check bool) "unanswered" true (r.Engine.circuit = None))
    results

(* The fallback rule: a stand-in keeps the requested taps and R-op kind.
   Under Final_only the heuristic solves its blocks with final taps, so
   its circuits for these four 4-input functions tap no leg mid-way; both
   generators emit NOR circuits, which a Nimp batch must not hand out. A
   batch whose deadline is gone gets the baseline at once: no heuristic
   block runs past the deadline. *)
let test_fallback_rule () =
  let spec v =
    Spec.make ~name:(Printf.sprintf "%04x" v) [| Mm_boolfun.Truth_table.of_int 4 v |]
  in
  let specs = Array.map spec [| 0x6996; 0x16ad; 0x6ac0; 0x3cc3 |] in
  let final_only ?rop_kind ?deadline fallback =
    Engine.config ?rop_kind ~taps:Mm_core.Encode.Final_only
      ~timeout_per_call:0.5 ~domains:1 ?deadline ~retries:0 ~fallback ()
  in
  let starved ?rop_kind fallback =
    final_only ?rop_kind ~deadline:1e-6 fallback
  in
  let t0 = Unix.gettimeofday () in
  let results, summary = Engine.run (starved Engine.Use_heuristic) specs in
  let wall = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "every spec rescued" 4 summary.Engine.fallbacks;
  Alcotest.(check bool)
    (Printf.sprintf "the starved batch ends within its second (%.2fs)" wall)
    true (wall < 1.0);
  Array.iter
    (fun r ->
      check_circuit r;
      Alcotest.(check bool)
        (Spec.name r.Engine.spec ^ ": the baseline stands in past the deadline")
        true
        (r.Engine.provenance = Engine.Via_baseline);
      match r.Engine.circuit with
      | Some c ->
        Alcotest.(check bool)
          (Spec.name r.Engine.spec ^ " keeps final taps")
          true (C.final_taps_only c)
      | None -> ())
    results;
  (* without a deadline the heuristic runs, and its circuit for 0x3cc3
     taps final steps only *)
  (match Engine.fallback (final_only Engine.Use_heuristic) specs.(3) with
   | Some (c, provenance) ->
     Alcotest.(check bool) "3cc3 verifies" true
       (C.realizes c specs.(3) = Ok ());
     Alcotest.(check bool) "3cc3 keeps final taps" true (C.final_taps_only c);
     Alcotest.(check bool) "3cc3: the heuristic answers" true
       (provenance = Engine.Via_heuristic)
   | None -> Alcotest.fail "3cc3: no fallback circuit");
  List.iter
    (fun fallback ->
      let results, summary =
        Engine.run (starved ~rop_kind:Mm_core.Rop.Nimp fallback) specs
      in
      Alcotest.(check int) "no NOR stand-in for a Nimp batch" 0
        summary.Engine.fallbacks;
      Array.iter
        (fun r ->
          Alcotest.(check bool) "unanswered" true (r.Engine.circuit = None))
        results)
    [ Engine.Use_baseline; Engine.Use_heuristic ]

let () =
  Alcotest.run "fault"
    [
      ( "fault",
        [
          Alcotest.test_case "decide is deterministic" `Quick
            test_decide_determinism;
          Alcotest.test_case "rates honored" `Quick test_decide_rates;
          Alcotest.test_case "stage and only filters" `Quick
            test_stage_and_only_filters;
          Alcotest.test_case "guard and forced unknown" `Quick
            test_guard_and_unknown;
          Alcotest.test_case "parse CLI spec" `Quick test_parse_spec;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "unbounded grants full budget" `Quick
            test_deadline_unbounded;
          Alcotest.test_case "splits the wall budget" `Quick test_deadline_split;
          Alcotest.test_case "expiry refuses claims" `Quick test_deadline_expiry;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "batch survives injected faults" `Quick
            test_batch_survives_faults;
          Alcotest.test_case "starved batch degrades to baseline" `Quick
            test_deadline_starvation_degrades;
          Alcotest.test_case "no-fallback starvation stays honest" `Quick
            test_no_fallback_leaves_unanswered;
          Alcotest.test_case "fallback keeps taps and R-op kind" `Slow
            test_fallback_rule;
        ] );
    ]
