module C = Mm_core.Circuit
module Rop = Mm_core.Rop
module Vop = Mm_core.Vop
module Spec = Mm_boolfun.Spec
module Reference = Mm_core.Reference
module Emit = Mm_core.Emit
module Tt = Mm_boolfun.Truth_table
module Literal = Mm_boolfun.Literal
module Arith = Mm_boolfun.Arith
module Gf = Mm_boolfun.Gf

let vop te be = { C.te; be }

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* a handcrafted XOR2: legs x1·x2 and ¬x1·¬x2, one NOR *)
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

let test_xor2 () =
  let c = xor2_circuit () in
  Alcotest.(check string) "xor table" "0110"
    (Tt.to_string (C.output_tables c).(0));
  Alcotest.(check int) "devices" 3 (C.n_devices c);
  Alcotest.(check int) "steps" 3 (C.n_steps c);
  Alcotest.(check int) "vops" 4 (C.n_vops c)

let test_validation () =
  let bad_rop () =
    C.make ~arity:2 ~legs:[||]
      ~rops:[| { C.in1 = C.From_rop 0; in2 = C.From_literal Literal.Const0 } |]
      ~outputs:[| C.From_rop 0 |]
      ()
  in
  Alcotest.check_raises "forward rop ref"
    (Invalid_argument "Circuit: R-op input must precede it") (fun () ->
      ignore (bad_rop ()));
  let ragged () =
    C.make ~arity:2
      ~legs:[| [| vop Literal.Const0 Literal.Const0 |]; [||] |]
      ~rops:[||]
      ~outputs:[| C.From_leg 0 |]
      ()
  in
  Alcotest.check_raises "ragged legs" (Invalid_argument "Circuit: ragged legs")
    (fun () -> ignore (ragged ()));
  let bad_lit () =
    C.make ~arity:2 ~legs:[||] ~rops:[||]
      ~outputs:[| C.From_literal (Literal.Pos 5) |]
      ()
  in
  Alcotest.check_raises "literal range"
    (Invalid_argument "Circuit: literal out of range") (fun () ->
      ignore (bad_lit ()));
  let bad_step () =
    C.make ~arity:2
      ~legs:[| [| vop Literal.Const0 Literal.Const0 |] |]
      ~rops:[||]
      ~outputs:[| C.From_vop (0, 1) |]
      ()
  in
  Alcotest.check_raises "vop step range"
    (Invalid_argument "Circuit: bad V-op step index") (fun () ->
      ignore (bad_step ()))

let test_table2_reference () =
  let c = Reference.table2_circuit () in
  (match C.realizes c Arith.table2_spec with
   | Ok () -> ()
   | Error row -> Alcotest.failf "table2 wrong on row %d" row);
  (* every intermediate state printed in the paper must be reproduced *)
  let idx = function
    | Reference.And4 -> 0
    | Reference.Nand4 -> 1
    | Reference.Or4 -> 2
    | Reference.Nor4 -> 3
  in
  List.iter
    (fun (fn, step, expect) ->
      let got = Tt.to_string (C.leg_value c ~leg:(idx fn) ~step:(step - 1)) in
      Alcotest.(check string)
        (Printf.sprintf "fn %d step %d" (idx fn) step)
        expect got)
    Reference.table2_expected_states

let test_gf_reference () =
  let c = Reference.gf4_mul_circuit () in
  (match C.realizes c (Gf.mul_spec 2) with
   | Ok () -> ()
   | Error row -> Alcotest.failf "gf mul wrong on row %d" row);
  (* the paper's Fig. 1 metrics: 10 devices, 7 steps (3 V + 4 R), 18 V-ops *)
  Alcotest.(check int) "devices" 10 (C.n_devices c);
  Alcotest.(check int) "steps" 7 (C.n_steps c);
  Alcotest.(check int) "V-ops" 18 (C.n_vops c);
  Alcotest.(check int) "R-ops" 4 (C.n_rops c);
  Alcotest.(check int) "legs" 6 (C.n_legs c)

let test_realizes_mismatch () =
  let c = xor2_circuit () in
  (match C.realizes c (Arith.parity 2) with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "xor2 = parity2");
  match C.realizes c (Arith.majority 2) with
  | Ok () -> Alcotest.fail "xor2 is not majority"
  | Error row -> Alcotest.(check bool) "row in range" true (row >= 0 && row < 4)

let test_eval_word () =
  let c = Reference.table2_circuit () in
  Alcotest.(check int) "row 15" 0b0101 (C.eval c 15);
  Alcotest.(check int) "row 0" 0b1010 (C.eval c 0)

let test_physicalize () =
  let c = Reference.gf4_mul_circuit () in
  Alcotest.(check bool) "uses intermediate taps" false (C.final_taps_only c);
  let p = C.physicalize c in
  Alcotest.(check bool) "now final only" true (C.final_taps_only p);
  (match C.realizes p (Gf.mul_spec 2) with
   | Ok () -> ()
   | Error row -> Alcotest.failf "physicalized wrong on row %d" row);
  Alcotest.(check int) "device count stable" (C.n_devices c) (C.n_devices p);
  (* physicalize is the identity on final-tap circuits *)
  let p2 = C.physicalize p in
  Alcotest.(check bool) "idempotent" true (p == p2)

let test_physicalize_multi_tap () =
  (* one leg tapped at two distinct steps must split into two replicas *)
  let c =
    C.make ~arity:2
      ~legs:[| [| vop (Literal.Pos 1) Literal.Const0;
                  vop (Literal.Pos 2) Literal.Const1 |] |]
      ~rops:[| { C.in1 = C.From_vop (0, 0); in2 = C.From_vop (0, 1) } |]
      ~outputs:[| C.From_rop 0 |]
      ()
  in
  Alcotest.(check int) "two tap devices + rop" 3 (C.n_devices c);
  let p = C.physicalize c in
  Alcotest.(check int) "split legs" 2 (C.n_legs p);
  Alcotest.(check bool) "same function" true
    (Tt.equal (C.output_tables c).(0) (C.output_tables p).(0))

(* --- evaluator oracle --- *)

(* A seeded random valid circuit: arity 1-7, up to 4 legs of one common
   length of at most 6 steps, at most 12 R-ops of either kind, sources
   drawn from every literal (constants included), leg finals, mid-leg taps
   and earlier R-ops. *)
let random_circuit st =
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let arity = 1 + Random.State.int st 7 in
  let lits = Literal.all arity in
  let n_legs = Random.State.int st 5 in
  let steps = Random.State.int st 7 in
  let legs =
    Array.init n_legs (fun _ ->
        Array.init steps (fun _ -> vop (pick lits) (pick lits)))
  in
  let source ~rops =
    let kinds =
      [ `Lit ] @ (if n_legs > 0 then [ `Leg ] else [])
      @ (if n_legs > 0 && steps > 0 then [ `Vop ] else [])
      @ if rops > 0 then [ `Rop ] else []
    in
    match pick kinds with
    | `Lit -> C.From_literal (pick lits)
    | `Leg -> C.From_leg (Random.State.int st n_legs)
    | `Vop -> C.From_vop (Random.State.int st n_legs, Random.State.int st steps)
    | `Rop -> C.From_rop (Random.State.int st rops)
  in
  let n_rops = Random.State.int st 13 in
  let rops =
    Array.init n_rops (fun i -> { C.in1 = source ~rops:i; in2 = source ~rops:i })
  in
  let outputs = Array.init (1 + Random.State.int st 3) (fun _ -> source ~rops:n_rops) in
  C.make ~arity ~rop_kind:(pick Rop.all_kinds) ~legs ~rops ~outputs ()

(* Row-by-row replay on bools with Table I and the R-op truth table. *)
let replay c row =
  let lit l = Literal.eval c.C.arity l row in
  let leg_after l s =
    let st = ref false in
    for i = 0 to s do
      let { C.te; be } = c.C.legs.(l).(i) in
      st := Vop.next !st ~te:(lit te) ~be:(lit be)
    done;
    !st
  in
  let rops = Array.make (C.n_rops c) false in
  let source = function
    | C.From_literal l -> lit l
    | C.From_leg l -> leg_after l (Array.length c.C.legs.(l) - 1)
    | C.From_vop (l, s) -> leg_after l s
    | C.From_rop r -> rops.(r)
  in
  Array.iteri
    (fun i { C.in1; in2 } -> rops.(i) <- Rop.eval c.C.rop_kind (source in1) (source in2))
    c.C.rops;
  (leg_after, source)

let all_sources c =
  List.map (fun l -> C.From_literal l) (Literal.all c.C.arity)
  @ List.concat
      (List.init (C.n_legs c) (fun l ->
           C.From_leg l
           :: List.init (C.steps_per_leg c) (fun s -> C.From_vop (l, s))))
  @ List.init (C.n_rops c) (fun r -> C.From_rop r)

let test_evaluator_oracle () =
  let st = Random.State.make [| 20261017 |] in
  for k = 1 to 400 do
    let c = random_circuit st in
    let name what = Printf.sprintf "circuit %d: %s" k what in
    let rows = 1 lsl c.C.arity in
    let replays = Array.init rows (replay c) in
    let check_table what tt expect =
      for q = 0 to rows - 1 do
        if Tt.eval tt q <> expect q then
          Alcotest.failf "%s wrong on row %d" (name what) q
      done
    in
    let values = C.rop_values c in
    Alcotest.(check int) (name "rop_values length") (C.n_rops c) (Array.length values);
    Array.iteri
      (fun i tt ->
        let expect q = snd replays.(q) (C.From_rop i) in
        check_table (Printf.sprintf "rop_values.(%d)" i) tt expect;
        check_table (Printf.sprintf "rop_value %d" i) (C.rop_value c i) expect)
      values;
    List.iter
      (fun src ->
        check_table
          (Format.asprintf "source_value %a" C.pp_source src)
          (C.source_value c src)
          (fun q -> snd replays.(q) src))
      (all_sources c);
    for l = 0 to C.n_legs c - 1 do
      for s = -1 to C.steps_per_leg c - 1 do
        check_table
          (Printf.sprintf "leg_value %d %d" l s)
          (C.leg_value c ~leg:l ~step:s)
          (fun q -> fst replays.(q) l s)
      done
    done;
    let tables = C.output_tables c in
    Array.iteri
      (fun o tt ->
        check_table (Printf.sprintf "output %d" o) tt (fun q ->
            snd replays.(q) c.C.outputs.(o)))
      tables;
    let word q =
      let w = ref 0 in
      Array.iteri
        (fun o src -> if snd replays.(q) src then w := !w lor (1 lsl o))
        c.C.outputs;
      !w
    in
    for q = 0 to rows - 1 do
      Alcotest.(check int) (name (Printf.sprintf "eval row %d" q)) (word q) (C.eval c q)
    done;
    let spec_of f =
      Spec.of_fun ~name:"oracle" ~arity:c.C.arity ~outputs:(C.n_outputs c) f
    in
    let truth ~row ~output = (word row lsr output) land 1 = 1 in
    (match C.realizes c (spec_of truth) with
     | Ok () -> ()
     | Error row -> Alcotest.failf "%s on row %d" (name "realizes") row);
    (* flip two rows of one output: the first of them is reported *)
    let o = Random.State.int st (C.n_outputs c) in
    let r1 = Random.State.int st rows and r2 = Random.State.int st rows in
    let flipped ~row ~output =
      truth ~row ~output <> (output = o && (row = r1 || row = r2))
    in
    Alcotest.(check (result unit int))
      (name "realizes mismatch")
      (Error (min r1 r2))
      (C.realizes c (spec_of flipped))
  done

let test_emit () =
  let c = xor2_circuit () in
  let dot = Emit.to_dot c in
  Alcotest.(check bool) "dot digraph" true (contains dot "digraph");
  Alcotest.(check bool) "dot rop" true (contains dot "rop0");
  let json = Emit.to_json c in
  Alcotest.(check bool) "json arity" true (contains json "\"arity\":2");
  Alcotest.(check bool) "json outputs" true (contains json "\"outputs\"");
  let text = Emit.to_text c in
  Alcotest.(check bool) "text" true (contains text "R1 = NOR(V1, V2)")

let () =
  Alcotest.run "circuit"
    [
      ( "circuit",
        [
          Alcotest.test_case "xor2 handcrafted" `Quick test_xor2;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "Table II reference" `Quick test_table2_reference;
          Alcotest.test_case "GF(2^2) reference" `Quick test_gf_reference;
          Alcotest.test_case "realizes mismatch" `Quick test_realizes_mismatch;
          Alcotest.test_case "eval word" `Quick test_eval_word;
          Alcotest.test_case "physicalize" `Quick test_physicalize;
          Alcotest.test_case "physicalize multi-tap" `Quick test_physicalize_multi_tap;
          Alcotest.test_case "emit" `Quick test_emit;
          Alcotest.test_case "evaluator oracle" `Quick test_evaluator_oracle;
        ] );
    ]
