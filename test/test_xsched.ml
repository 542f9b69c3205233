module Aig = Mm_map.Aig
module Mapper = Mm_map.Mapper
module Stitch = Mm_map.Stitch
module Place = Mm_map.Place
module Xsched = Mm_map.Xsched
module Xstitch = Mm_map.Xstitch
module Engine = Mm_engine.Engine
module Cache = Mm_engine.Cache
module Arith = Mm_boolfun.Arith
module Spec = Mm_boolfun.Spec
module Expr = Mm_boolfun.Expr
module C = Mm_core.Circuit

let shared_cache = lazy (Cache.create ())

let cfg () =
  Engine.config ~timeout_per_call:0.05 ~max_rops:5 ~domains:1
    ~cache:(Lazy.force shared_cache) ()

let compile spec = Stitch.compile (cfg ()) spec

(* ------------------------------------------------------------------ *)
(* block-dependency DAG                                               *)

let test_dag_levels () =
  List.iter
    (fun spec ->
      let r = compile spec in
      let dag = r.Stitch.dag in
      let nb = Array.length dag.Mapper.blocks in
      Alcotest.(check int)
        (Spec.name spec ^ " dag mirrors cover")
        (List.length r.Stitch.mapping.Mapper.blocks)
        nb;
      (* every dependency sits at a strictly lower level, and depth is the
         max level + 1 *)
      Array.iteri
        (fun i ds ->
          List.iter
            (fun j ->
              Alcotest.(check bool)
                (Printf.sprintf "%s dep %d->%d level" (Spec.name spec) i j)
                true
                (dag.Mapper.level.(j) < dag.Mapper.level.(i)))
            ds)
        dag.Mapper.deps;
      let max_level = Array.fold_left max 0 dag.Mapper.level in
      Alcotest.(check int)
        (Spec.name spec ^ " depth")
        (if nb = 0 then 0 else max_level + 1)
        dag.Mapper.depth)
    [ Arith.parity 5; Arith.adder_bits 2; Arith.majority 5 ]

(* ------------------------------------------------------------------ *)
(* scheduler legality                                                 *)

let test_schedule_legal () =
  let r = compile (Arith.adder_bits 2) in
  let place = Place.place ~rows:8 r.Stitch.mapping in
  let sched = Xsched.build place in
  Alcotest.(check bool) "built schedule passes check" true
    (Xsched.check ~ports:4 place sched.Xsched.cycles = Ok ());
  (* duplicating a cycle double-schedules its micro-ops *)
  let dup =
    Array.append sched.Xsched.cycles [| sched.Xsched.cycles.(0) |]
  in
  Alcotest.(check bool) "duplicate cycle rejected" true
    (match Xsched.check place dup with Error _ -> true | Ok () -> false);
  (* dropping the last cycle leaves micro-ops unscheduled *)
  let missing =
    Array.sub sched.Xsched.cycles 0 (Array.length sched.Xsched.cycles - 1)
  in
  Alcotest.(check bool) "missing cycle rejected" true
    (match Xsched.check place missing with Error _ -> true | Ok () -> false);
  (* reversing the schedule breaks every dependency chain *)
  let rev = Array.of_list (List.rev (Array.to_list sched.Xsched.cycles)) in
  Alcotest.(check bool) "reversed schedule rejected" true
    (match Xsched.check place rev with Error _ -> true | Ok () -> false);
  (* out-of-range micro-ops are rejected, not raised on *)
  List.iter
    (fun (what, cyc) ->
      Alcotest.(check bool) (what ^ " rejected") true
        (match Xsched.check place (Array.append sched.Xsched.cycles [| cyc |]) with
        | Error _ -> true
        | Ok () -> false))
    [
      ("V-step in a bad slot", Xsched.C_v [ (999, 0) ]);
      ("V-step at a bad step", Xsched.C_v [ (0, 999) ]);
      ("bad R-gate", Xsched.C_r [ Xsched.Gate (999, 0) ]);
      ("bad inverter", Xsched.C_r [ Xsched.Inverter 999 ]);
      ("bad transfer", Xsched.C_t [ 999 ]);
    ]

let test_single_row_no_transfers () =
  (* with one row everything co-locates: no transfers may be emitted, and
     the schedule still verifies on the simulator *)
  List.iter
    (fun spec ->
      let r = compile spec in
      let result = Xstitch.of_stitch ~rows:1 r spec in
      Alcotest.(check int)
        (Spec.name spec ^ " transfers on 1 row")
        0 result.Xstitch.transfers;
      Alcotest.(check int)
        (Spec.name spec ^ " t-cycles on 1 row")
        0 result.Xstitch.sched.Xsched.t_cycles;
      Alcotest.(check bool)
        (Spec.name spec ^ " verified on 1 row")
        true result.Xstitch.verified)
    [ Arith.parity 5; Arith.majority 5 ]

let test_transfer_accounting () =
  (* scheduled transfer cycles must cover exactly the placed transfers —
     check requires each exactly once; here we cross-check the totals *)
  let r = compile (Arith.adder_bits 3) in
  let result = Xstitch.of_stitch ~rows:8 r (Arith.adder_bits 3) in
  let total =
    Array.fold_left
      (fun acc -> function
        | Xsched.C_t ixs -> acc + List.length ixs
        | Xsched.C_v _ | Xsched.C_r _ -> acc)
      0 result.Xstitch.sched.Xsched.cycles
  in
  Alcotest.(check int) "every placed transfer scheduled once"
    result.Xstitch.transfers total;
  Alcotest.(check bool) "adder3 verified" true result.Xstitch.verified

let test_polish_never_worse () =
  List.iter
    (fun spec ->
      let r = compile spec in
      let place = Place.place ~rows:8 r.Stitch.mapping in
      let plain = Xsched.build ~polish:false place in
      let polished = Xsched.build ~polish:true place in
      Alcotest.(check bool)
        (Spec.name spec ^ " polish never increases cycles")
        true
        (Xsched.n_cycles polished <= Xsched.n_cycles plain);
      Alcotest.(check int)
        (Spec.name spec ^ " polish gain consistent")
        (Xsched.n_cycles plain - Xsched.n_cycles polished)
        polished.Xsched.polish_gain;
      Alcotest.(check bool)
        (Spec.name spec ^ " polished schedule legal")
        true
        (Xsched.check ~ports:4 place polished.Xsched.cycles = Ok ()))
    [ Arith.parity 6; Arith.adder_bits 2 ]

(* The polish skips a window when its slot bound exceeds [w - 1]. The bound
   must never exceed [w] on a legal window (the window's own packing is a
   [w]-slot answer), and a window it refutes must be UNSAT under the
   encoding, solved without a conflict cap. Random 3-5-input specs, rows
   4-16, ports 1-4. *)
let test_window_bound_sound () =
  let st = Random.State.make [| 17 |] in
  let w = 8 and windows = ref 0 and refuted = ref 0 and bad = ref [] in
  for k = 1 to 12 do
    let n = 3 + Random.State.int st 3 in
    let spec =
      Spec.make ~name:(Printf.sprintf "random%d" k)
        (Array.init
           (1 + Random.State.int st 2)
           (fun _ ->
             Mm_boolfun.Truth_table.of_fun n (fun _ -> Random.State.bool st)))
    in
    let mapping = (compile spec).Stitch.mapping in
    for _ = 1 to 3 do
      let rows = 4 + Random.State.int st 13 and ports = 1 + Random.State.int st 4 in
      let place = Place.place ~rows mapping in
      let cycles = (Xsched.build ~ports ~polish:false place).Xsched.cycles in
      for lo = 0 to Array.length cycles - w do
        incr windows;
        let bound = Xsched.window_bound ~ports place cycles ~lo ~w in
        let where =
          Printf.sprintf "%s rows %d ports %d window %d: bound %d"
            (Spec.name spec) rows ports lo bound
        in
        if bound > w then bad := (where ^ " > w") :: !bad
        else if bound > w - 1 then begin
          incr refuted;
          if Xsched.window_verdict ~ports place cycles ~lo ~w
             <> Mm_sat.Solver.Unsat
          then bad := (where ^ " refutes a satisfiable window") :: !bad
        end
      done
    done
  done;
  Alcotest.(check (list string)) "bound sound on every window" [] (List.rev !bad);
  Alcotest.(check bool)
    (Printf.sprintf "some of %d windows refuted (%d), not all" !windows !refuted)
    true
    (!refuted > 0 && !refuted < !windows)

(* ------------------------------------------------------------------ *)
(* end-to-end on the simulator                                        *)

let test_end_to_end () =
  List.iter
    (fun spec ->
      let result = Xstitch.compile ~rows:8 (cfg ()) spec in
      Alcotest.(check bool)
        (Spec.name spec ^ " crossbar verified")
        true result.Xstitch.verified;
      Alcotest.(check int)
        (Spec.name spec ^ " readout = outputs")
        (Spec.output_count spec)
        result.Xstitch.readout;
      (* cycle budget never exceeds the fully-serial 1D schedule *)
      let steps = C.n_steps result.Xstitch.stitch.Stitch.stitched.Stitch.circuit in
      Alcotest.(check bool)
        (Spec.name spec ^ " cycles <= 1D steps")
        true
        (result.Xstitch.cycles <= steps))
    [ Arith.parity 5; Arith.adder_bits 2; Arith.mux41; Arith.majority 5 ]

let test_trivial_outputs () =
  (* wires, negated wires and constants exercise the no-block paths *)
  let x1 = Expr.parse_exn "x1" in
  let nx2 = Expr.parse_exn "~x2" in
  let const1 = Expr.parse_exn "x1 | ~x1" in
  let spec = Expr.spec ~name:"wires" ~n:2 [ x1; nx2; const1 ] in
  let result = Xstitch.compile ~rows:4 (cfg ()) spec in
  Alcotest.(check bool) "wires verified" true result.Xstitch.verified

let () =
  Alcotest.run "xsched"
    [
      ( "dag",
        [ Alcotest.test_case "levels and depth" `Slow test_dag_levels ] );
      ( "scheduler",
        [
          Alcotest.test_case "legality checker" `Slow test_schedule_legal;
          Alcotest.test_case "single row, no transfers" `Slow
            test_single_row_no_transfers;
          Alcotest.test_case "transfer accounting" `Slow
            test_transfer_accounting;
          Alcotest.test_case "polish never worse" `Slow test_polish_never_worse;
          Alcotest.test_case "window bound sound" `Slow test_window_bound_sound;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "compile and verify" `Slow test_end_to_end;
          Alcotest.test_case "trivial outputs" `Slow test_trivial_outputs;
        ] );
    ]
