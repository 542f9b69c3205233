module Resyn = Mm_resyn.Resyn
module Artifact = Mm_resyn.Artifact
module Json = Mm_report.Json
module Stitch = Mm_map.Stitch
module Xstitch = Mm_map.Xstitch
module Engine = Mm_engine.Engine
module Cache = Mm_engine.Cache
module Arith = Mm_boolfun.Arith
module Spec = Mm_boolfun.Spec
module Tt = Mm_boolfun.Truth_table
module C = Mm_core.Circuit
module Schedule = Mm_core.Schedule

(* one memory-only cache shared by every compile in this binary: the specs
   below revisit the same NPN classes over and over *)
let shared_cache = lazy (Cache.create ())

let cfg () =
  Engine.config ~timeout_per_call:0.05 ~max_rops:5 ~domains:1
    ~cache:(Lazy.force shared_cache) ()

let specs = [ Arith.adder_bits 2; Arith.majority 5; Arith.parity 5 ]

let stitched spec = (Stitch.compile (cfg ()) spec).Stitch.stitched.Stitch.circuit

(* ------------------------------------------------------------------ *)
(* Cleanup sweeps                                                      *)
(* ------------------------------------------------------------------ *)

let test_sweep_dce_preserve () =
  List.iter
    (fun spec ->
      let c = stitched spec in
      let c1, merged = Resyn.sweep_merge c in
      Alcotest.(check bool)
        (Spec.name spec ^ " sweep preserves")
        true
        (C.realizes c1 spec = Ok ());
      let c2, removed = Resyn.dce c1 in
      Alcotest.(check bool)
        (Spec.name spec ^ " dce preserves")
        true
        (C.realizes c2 spec = Ok ());
      Alcotest.(check int)
        (Spec.name spec ^ " dce drops what it counts")
        (C.n_rops c1 - removed) (C.n_rops c2);
      Alcotest.(check bool)
        (Spec.name spec ^ " counters non-negative")
        true
        (merged >= 0 && removed >= 0))
    specs

(* compact_legs reschedules every leg onto a shortest common supersequence
   of the BE rails: the result must still realize the spec, must still
   satisfy the line array's shared-BE-rail constraint (Schedule.plan raises
   otherwise), must never be longer, and a second application must find
   nothing left (fixed point) *)
let test_compact_legs () =
  List.iter
    (fun spec ->
      let c = stitched spec in
      let c1, saved = Resyn.compact_legs c in
      Alcotest.(check int)
        (Spec.name spec ^ " saved = delta")
        (C.steps_per_leg c - C.steps_per_leg c1)
        saved;
      Alcotest.(check bool) (Spec.name spec ^ " never worse") true (saved >= 0);
      Alcotest.(check bool)
        (Spec.name spec ^ " compaction preserves")
        true
        (C.realizes c1 spec = Ok ());
      let plan = Schedule.plan c1 in
      Alcotest.(check (list int))
        (Spec.name spec ^ " schedulable after compaction")
        []
        (Schedule.verify plan spec);
      let _, saved2 = Resyn.compact_legs c1 in
      Alcotest.(check int) (Spec.name spec ^ " fixed point") 0 saved2)
    specs

(* ------------------------------------------------------------------ *)
(* Fixed-point loop                                                    *)
(* ------------------------------------------------------------------ *)

let test_optimize_never_worse () =
  List.iter
    (fun spec ->
      let c = stitched spec in
      let r = Resyn.run spec c in
      let s = r.Resyn.stats in
      Alcotest.(check int)
        (Spec.name spec ^ " steps_before")
        (C.n_steps c) s.Resyn.steps_before;
      Alcotest.(check int)
        (Spec.name spec ^ " steps_after")
        (C.n_steps r.Resyn.circuit)
        s.Resyn.steps_after;
      Alcotest.(check bool)
        (Spec.name spec ^ " never worse")
        true
        (s.Resyn.steps_after <= s.Resyn.steps_before);
      Alcotest.(check bool)
        (Spec.name spec ^ " result realizes")
        true
        (C.realizes r.Resyn.circuit spec = Ok ());
      let plan = Schedule.plan r.Resyn.circuit in
      Alcotest.(check (list int))
        (Spec.name spec ^ " result schedulable")
        []
        (Schedule.verify plan spec))
    specs

let test_optimize_rejects_wrong_circuit () =
  (* the driver refuses a circuit that does not realize the spec — a
     resynthesis of the wrong function must never start *)
  let spec = Arith.majority 5 in
  let wrong = stitched (Arith.parity 5) in
  match Resyn.run spec wrong with
  | _ -> Alcotest.fail "wrong input accepted"
  | exception Invalid_argument msg ->
    Alcotest.(check bool)
      "names the offense" true
      (String.length msg >= 9 && String.sub msg 0 9 = "Resyn.run")

(* [optimize] is the shim the benchmark's compile workload calls: it must
   run the same loop as [run], whatever [max_width] says *)
let test_optimize_is_run () =
  List.iter
    (fun spec ->
      let c = stitched spec in
      let r = Resyn.run spec c in
      List.iter
        (fun (label, o) ->
          Alcotest.(check bool)
            (Spec.name spec ^ " " ^ label ^ " same circuit")
            true
            (o.Resyn.circuit = r.Resyn.circuit);
          Alcotest.(check int)
            (Spec.name spec ^ " " ^ label ^ " same passes")
            r.Resyn.stats.Resyn.passes o.Resyn.stats.Resyn.passes;
          Alcotest.(check (pair int int))
            (Spec.name spec ^ " " ^ label ^ " no windows")
            (0, 0)
            (o.Resyn.stats.Resyn.windows_attempted,
             o.Resyn.stats.Resyn.windows_accepted))
        [ ("optimize", Resyn.optimize (cfg ()) spec c);
          ("optimize ~max_width:1", Resyn.optimize ~max_width:1 (cfg ()) spec c) ])
    specs

(* ------------------------------------------------------------------ *)
(* Crossbar                                                            *)
(* ------------------------------------------------------------------ *)

(* few rows force cross-row operands, so the schedules replayed on the
   crossbar simulator exercise peripheral transfer cycles, not just the
   broadcast/NOR phases *)
let test_xbar_transfer_coverage () =
  let compiled =
    List.map
      (fun spec -> (spec, Xstitch.compile ~rows:4 ~ports:2 (cfg ()) spec))
      [ Arith.adder_bits 2; Arith.majority 5 ]
  in
  List.iter
    (fun (spec, r) ->
      Alcotest.(check bool)
        (Spec.name spec ^ " xbar verified")
        true r.Xstitch.verified)
    compiled;
  Alcotest.(check bool)
    "transfer cycles exercised" true
    (List.exists (fun (_, r) -> r.Xstitch.transfers > 0) compiled)

(* ------------------------------------------------------------------ *)
(* Artifact round trip                                                 *)
(* ------------------------------------------------------------------ *)

let test_artifact_round_trip () =
  List.iter
    (fun spec ->
      let c = stitched spec in
      match Artifact.circuit_of_json (Artifact.circuit_to_json c) with
      | Error msg -> Alcotest.failf "%s: circuit: %s" (Spec.name spec) msg
      | Ok c2 ->
        Alcotest.(check bool)
          (Spec.name spec ^ " circuit round trip")
          true
          (C.realizes c2 spec = Ok ());
        Alcotest.(check int)
          (Spec.name spec ^ " steps survive")
          (C.n_steps c) (C.n_steps c2);
        (match Artifact.spec_of_json (Artifact.spec_to_json spec) with
         | Error msg -> Alcotest.failf "%s: spec: %s" (Spec.name spec) msg
         | Ok spec2 ->
           Alcotest.(check string)
             "spec name survives" (Spec.name spec) (Spec.name spec2);
           Alcotest.(check bool)
             (Spec.name spec ^ " spec tables survive")
             true
             (Array.for_all2 Tt.equal (Spec.outputs spec) (Spec.outputs spec2))))
    specs

(* a V-op literal beyond the arity must be refused by the parser, not
   reach evaluation: set the first TE of a [map --json] circuit to x9 *)
let test_artifact_bad_literal () =
  let c = stitched (Arith.adder_bits 2) in
  Alcotest.(check bool) "has a V-op" true (C.n_legs c > 0 && C.steps_per_leg c > 0);
  let set_te = function
    | "te", _ -> ("te", Json.String "x9")
    | kv -> kv
  in
  let corrupt = function
    | "legs", Json.List (Json.List (Json.Obj op :: ops) :: legs) ->
      ("legs", Json.List (Json.List (Json.Obj (List.map set_te op) :: ops) :: legs))
    | kv -> kv
  in
  match Artifact.circuit_to_json c with
  | Json.Obj kvs -> (
    match Artifact.circuit_of_json (Json.Obj (List.map corrupt kvs)) with
    | Ok _ -> Alcotest.fail "out-of-range literal accepted"
    | Error msg ->
      Alcotest.(check string)
        "typed error" "artifact: invalid circuit: Circuit: literal out of range"
        msg)
  | _ -> Alcotest.fail "circuit IR is not an object"

let () =
  Alcotest.run "resyn"
    [
      ( "cleanup",
        [
          Alcotest.test_case "sweep + dce preserve" `Slow
            test_sweep_dce_preserve;
          Alcotest.test_case "leg compaction" `Slow test_compact_legs;
        ] );
      ( "optimize",
        [
          Alcotest.test_case "never worse, re-verified" `Slow
            test_optimize_never_worse;
          Alcotest.test_case "wrong circuit rejected" `Quick
            test_optimize_rejects_wrong_circuit;
          Alcotest.test_case "optimize shim is run" `Slow test_optimize_is_run;
        ] );
      ( "xbar",
        [
          Alcotest.test_case "transfer cycles covered" `Slow
            test_xbar_transfer_coverage;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "round trip" `Slow test_artifact_round_trip;
          Alcotest.test_case "out-of-range literal" `Quick
            test_artifact_bad_literal;
        ] );
    ]
