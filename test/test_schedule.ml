module Sch = Mm_core.Schedule
module C = Mm_core.Circuit
module Rop = Mm_core.Rop
module Reference = Mm_core.Reference
module Reliability = Mm_core.Reliability
module Baseline = Mm_core.Baseline
module Literal = Mm_boolfun.Literal
module Arith = Mm_boolfun.Arith
module Gf = Mm_boolfun.Gf
module Spec = Mm_boolfun.Spec
module Variation = Mm_device.Variation
module Rng = Mm_device.Rng

let vop te be = { C.te; be }

let xor2_circuit () =
  C.make ~arity:2
    ~legs:
      [|
        [| vop (Literal.Pos 1) Literal.Const0; vop (Literal.Pos 2) Literal.Const1 |];
        [| vop (Literal.Neg 1) Literal.Const0; vop (Literal.Neg 2) Literal.Const1 |];
      |]
    ~rops:[| { C.in1 = C.From_leg 0; in2 = C.From_leg 1 } |]
    ~outputs:[| C.From_rop 0 |]
    ()

let xor2_spec =
  Spec.of_fun ~name:"xor2" ~arity:2 ~outputs:1 (fun ~row ~output:_ ->
      Mm_boolfun.Truth_table.input_bit 2 row 1
      <> Mm_boolfun.Truth_table.input_bit 2 row 2)

let test_plan_roles () =
  let p = Sch.plan (xor2_circuit ()) in
  Alcotest.(check int) "cells" 3 (Sch.n_cells p);
  match Array.to_list (Sch.roles p) with
  | [ Sch.Leg_cell 0; Sch.Leg_cell 1; Sch.Rop_out_cell 0 ] -> ()
  | _ -> Alcotest.fail "unexpected role layout"

let test_literal_cells () =
  (* NOT(x1) = NOR(x1, const-0): two literal input cells *)
  let c =
    C.make ~arity:1 ~legs:[||]
      ~rops:
        [|
          {
            C.in1 = C.From_literal (Literal.Pos 1);
            in2 = C.From_literal Literal.Const0;
          };
        |]
      ~outputs:[| C.From_rop 0 |]
      ()
  in
  let p = Sch.plan c in
  Alcotest.(check int) "cells: 2 literal + 1 out" 3 (Sch.n_cells p);
  let spec =
    Spec.of_fun ~name:"not" ~arity:1 ~outputs:1 (fun ~row ~output:_ -> row = 0)
  in
  Alcotest.(check (list int)) "verified" [] (Sch.verify p spec)

let test_output_literal_cells () =
  (* an output that taps a literal no R-op reads gets a literal cell of
     its own *)
  let c =
    C.make ~arity:2
      ~legs:[| [| vop (Literal.Pos 1) Literal.Const0 |] |]
      ~rops:[||]
      ~outputs:[| C.From_leg 0; C.From_literal (Literal.Pos 2) |]
      ()
  in
  let p = Sch.plan c in
  Alcotest.(check int) "cells: 1 leg + 1 literal" 2 (Sch.n_cells p);
  let spec =
    Spec.of_fun ~name:"x1,x2" ~arity:2 ~outputs:2 (fun ~row ~output ->
        Mm_boolfun.Truth_table.input_bit 2 row (output + 1))
  in
  (match C.realizes c spec with
   | Ok () -> ()
   | Error row -> Alcotest.failf "logic model wrong on row %d" row);
  Alcotest.(check (list int)) "verified" [] (Sch.verify p spec);
  (* a circuit whose only output is a literal still plans a cell *)
  let c =
    C.make ~arity:1 ~legs:[||] ~rops:[||]
      ~outputs:[| C.From_literal (Literal.Neg 1) |]
      ()
  in
  let p = Sch.plan c in
  Alcotest.(check int) "cells: 1 literal" 1 (Sch.n_cells p);
  let spec =
    Spec.of_fun ~name:"not" ~arity:1 ~outputs:1 (fun ~row ~output:_ -> row = 0)
  in
  Alcotest.(check (list int)) "literal-only verified" [] (Sch.verify p spec)

let test_execute_cycles () =
  let p = Sch.plan (xor2_circuit ()) in
  let r = Sch.execute p ~input:0b10 () in
  (* 2 V steps + 1 R-op + 1 readout *)
  Alcotest.(check int) "cycles" 4 r.Sch.cycles;
  Alcotest.(check bool) "xor(1,0)" true r.Sch.outputs.(0)

let test_verify_references () =
  let p2 = Sch.plan (Reference.table2_circuit ()) in
  Alcotest.(check (list int)) "table2 clean" [] (Sch.verify p2 Arith.table2_spec);
  let pg = Sch.plan (Reference.gf4_mul_circuit ()) in
  Alcotest.(check (list int)) "gf mul clean" [] (Sch.verify pg (Gf.mul_spec 2))

let test_fig2_scenario () =
  (* the paper's experimental demonstration: input x1x2x3x4 = 1011 gives
     out1 = 0, out2 = 1 after 9 cycles on 10 cells *)
  let p = Sch.plan (Reference.gf4_mul_circuit ()) in
  Alcotest.(check int) "10 cells" 10 (Sch.n_cells p);
  let r = Sch.execute p ~input:0b1011 () in
  Alcotest.(check bool) "out1 = 0" false r.Sch.outputs.(0);
  Alcotest.(check bool) "out2 = 1" true r.Sch.outputs.(1);
  Alcotest.(check int) "9 cycles" 9 r.Sch.cycles;
  Alcotest.(check int) "waveform rows" 9 (Mm_device.Waveform.length r.Sch.waveform)

let test_nimp_schedulable () =
  (* NIMP(x1, x2) = x1 ∧ ¬x2 executed electrically via the IMPLY-style op *)
  let c =
    C.make ~arity:2 ~rop_kind:Rop.Nimp ~legs:[||]
      ~rops:
        [|
          {
            C.in1 = C.From_literal (Literal.Pos 1);
            in2 = C.From_literal (Literal.Pos 2);
          };
        |]
      ~outputs:[| C.From_rop 0 |]
      ()
  in
  let spec =
    Spec.of_fun ~name:"nimp" ~arity:2 ~outputs:1 (fun ~row ~output:_ ->
        Mm_boolfun.Truth_table.input_bit 2 row 1
        && not (Mm_boolfun.Truth_table.input_bit 2 row 2))
  in
  (match C.realizes c spec with
   | Ok () -> ()
   | Error row -> Alcotest.failf "logic model wrong on row %d" row);
  let p = Sch.plan c in
  Alcotest.(check (list int)) "electrically clean" [] (Sch.verify p spec)

let test_unshared_be_rejected () =
  let c =
    C.make ~arity:2
      ~legs:
        [|
          [| vop (Literal.Pos 1) Literal.Const0 |];
          [| vop (Literal.Pos 2) Literal.Const1 |];
        |]
      ~rops:[||]
      ~outputs:[| C.From_leg 0; C.From_leg 1 |]
      ()
  in
  Alcotest.check_raises "rail conflict"
    (Invalid_argument "Schedule.plan: legs disagree on the shared BE rail")
    (fun () -> ignore (Sch.plan c))

let test_multi_tap_plan () =
  (* plans physicalize automatically *)
  let c = Reference.gf4_mul_circuit () in
  Alcotest.(check bool) "reference has intermediate taps" false
    (C.final_taps_only c);
  let p = Sch.plan c in
  Alcotest.(check bool) "planned circuit is physical" true
    (C.final_taps_only (Sch.circuit p))

let test_error_rates () =
  let p = Sch.plan (Reference.gf4_mul_circuit ()) in
  let spec = Gf.mul_spec 2 in
  let ideal = Sch.error_rate p spec ~variation:Variation.ideal ~trials:3 ~seed:1 in
  Alcotest.(check (float 0.0)) "ideal is error-free" 0.0 ideal;
  let harsh =
    Sch.error_rate p spec
      ~variation:{ Variation.label = "x"; sigma_d2d = 0.6; sigma_c2c = 0.6 }
      ~trials:3 ~seed:1
  in
  Alcotest.(check bool) "harsh variation causes errors" true (harsh > 0.0)

let test_error_rate_deterministic () =
  let p = Sch.plan (xor2_circuit ()) in
  let e1 = Sch.error_rate p xor2_spec ~variation:Variation.moderate ~trials:5 ~seed:7 in
  let e2 = Sch.error_rate p xor2_spec ~variation:Variation.moderate ~trials:5 ~seed:7 in
  Alcotest.(check (float 0.0)) "same seed same estimate" e1 e2

(* --- simulator identity --- *)

let nimp_circuit () =
  C.make ~arity:3 ~rop_kind:Rop.Nimp
    ~legs:
      [|
        [| vop (Literal.Pos 1) Literal.Const0; vop (Literal.Pos 2) Literal.Const1 |];
        [| vop (Literal.Neg 3) Literal.Const0; vop (Literal.Pos 1) Literal.Const1 |];
      |]
    ~rops:
      [|
        { C.in1 = C.From_leg 0; in2 = C.From_leg 1 };
        { C.in1 = C.From_literal (Literal.Pos 3); in2 = C.From_rop 0 };
        { C.in1 = C.From_rop 1; in2 = C.From_leg 1 };
      |]
    ~outputs:[| C.From_rop 2; C.From_leg 0; C.From_rop 0 |]
    ()

(* Seeded executions of every input row under harsh D2D/C2C variation with
   one stuck cell. The digest covers every waveform observation printed
   with %h; all values were recorded before cycles became compact
   (drive + resistances). *)
let test_simulator_identity () =
  let params = Variation.apply Variation.harsh Mm_device.Device.default_params in
  List.iter
    (fun (name, c, fault, digest, outs, err) ->
      let plan = Sch.plan c in
      let trace = Buffer.create 65536 and words = Buffer.create 64 in
      for input = 0 to (1 lsl c.C.arity) - 1 do
        let r =
          Sch.execute ~params ~rng:(Rng.create (100 + input)) ~faults:[ fault ]
            plan ~input ()
        in
        let rows = Mm_device.Waveform.rows r.Sch.waveform in
        Alcotest.(check int) (name ^ ": length = rows")
          (List.length rows)
          (Mm_device.Waveform.length r.Sch.waveform);
        Printf.bprintf trace "row %d cycles %d\n" input r.Sch.cycles;
        List.iter
          (fun { Mm_device.Waveform.cycle; label; cells } ->
            Printf.bprintf trace "%d %s" cycle label;
            Array.iter
              (fun { Mm_device.Line_array.v_te; v_be; resistance; current } ->
                Printf.bprintf trace " %h %h %h %h" v_te v_be resistance current)
              cells;
            Buffer.add_char trace '\n')
          rows;
        Array.iter
          (fun o -> Buffer.add_char words (if o then '1' else '0'))
          r.Sch.outputs;
        Printf.bprintf words "/%d " r.Sch.cycles
      done;
      Alcotest.(check string) (name ^ ": observations") digest
        (Digest.to_hex (Digest.string (Buffer.contents trace)));
      Alcotest.(check string) (name ^ ": outputs/cycles") outs (Buffer.contents words);
      let spec = Spec.make ~name (C.output_tables c) in
      Alcotest.(check string) (name ^ ": error rate") err
        (Printf.sprintf "%h"
           (Sch.error_rate plan spec ~variation:Variation.harsh ~trials:4 ~seed:17)))
    [
      ( "nor", Reference.gf4_mul_circuit (), (7, Mm_device.Device.Stuck_at false),
        "c0dc2c1ce1db2ccc7d8350d65a877d1d",
        "01/9 10/9 00/9 01/9 01/9 01/9 11/9 11/9 00/9 11/9 11/9 01/9 11/9 11/9 \
         11/9 01/9 ",
        "0x1.fp-2" );
      ( "nimp", nimp_circuit (), (3, Mm_device.Device.Stuck_at true),
        "8daaac5380b50db24a33c57d198dff7c",
        "101/8 100/8 100/8 100/8 000/8 101/8 010/8 111/8 ", "0x1p-4" );
    ]

(* --- reliability study --- *)

let test_rop_depth () =
  Alcotest.(check int) "gf ref depth 2" 2
    (C.rop_depth (Reference.gf4_mul_circuit ()));
  Alcotest.(check int) "xor2 depth 1" 1 (C.rop_depth (xor2_circuit ()));
  Alcotest.(check int) "v-only depth 0" 0
    (C.rop_depth (Reference.table2_circuit ()))

(* The device counters see every switch, the first cycle's included:
   gf4_mul's worst input row switches 11 times, counted from the plan's
   initial cell states. *)
let test_max_switches () =
  Alcotest.(check int) "gf4_mul worst row" 11
    (Reliability.max_switches_per_run (Reference.gf4_mul_circuit ()))

let test_reliability_study () =
  let mm = xor2_circuit () in
  let r_only = Baseline.nor_network xor2_spec in
  let study = Reliability.run xor2_spec ~mm ~r_only ~trials:2 ~seed:3 in
  Alcotest.(check int) "one point per sweep entry"
    (List.length Variation.sweep) (List.length study.Reliability.points);
  List.iter
    (fun pt ->
      Alcotest.(check bool) "rates in [0,1]" true
        (pt.Reliability.mm_error >= 0.0 && pt.Reliability.mm_error <= 1.0
        && pt.Reliability.r_only_error >= 0.0 && pt.Reliability.r_only_error <= 1.0))
    study.Reliability.points;
  (* ideal row of the sweep must be error-free for both *)
  match study.Reliability.points with
  | first :: _ ->
    Alcotest.(check (float 0.0)) "mm ideal" 0.0 first.Reliability.mm_error;
    Alcotest.(check (float 0.0)) "r-only ideal" 0.0 first.Reliability.r_only_error
  | [] -> Alcotest.fail "empty sweep"

let () =
  Alcotest.run "schedule"
    [
      ( "plan",
        [
          Alcotest.test_case "roles" `Quick test_plan_roles;
          Alcotest.test_case "literal cells" `Quick test_literal_cells;
          Alcotest.test_case "output literal cells" `Quick test_output_literal_cells;
          Alcotest.test_case "nimp schedulable" `Quick test_nimp_schedulable;
          Alcotest.test_case "unshared BE rejected" `Quick test_unshared_be_rejected;
          Alcotest.test_case "multi-tap physicalized" `Quick test_multi_tap_plan;
        ] );
      ( "execute",
        [
          Alcotest.test_case "cycles" `Quick test_execute_cycles;
          Alcotest.test_case "verify references" `Quick test_verify_references;
          Alcotest.test_case "Fig. 2 scenario" `Quick test_fig2_scenario;
          Alcotest.test_case "error rates" `Slow test_error_rates;
          Alcotest.test_case "deterministic" `Quick test_error_rate_deterministic;
          Alcotest.test_case "simulator identity" `Quick test_simulator_identity;
        ] );
      ( "reliability",
        [
          Alcotest.test_case "rop depth" `Quick test_rop_depth;
          Alcotest.test_case "max switches" `Quick test_max_switches;
          Alcotest.test_case "study" `Slow test_reliability_study;
        ] );
    ]
