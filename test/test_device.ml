module Rng = Mm_device.Rng
module Device = Mm_device.Device
module Variation = Mm_device.Variation
module Line_array = Mm_device.Line_array
module Waveform = Mm_device.Waveform

let qtest = QCheck_alcotest.to_alcotest

let params = Device.default_params
let vw = params.Device.v_write

let fresh_device () = Device.create ~rng:(Rng.create 42) params

(* --- rng --- *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let root = Rng.create 7 in
  let a = Rng.split root in
  let b = Rng.split root in
  Alcotest.(check bool) "different streams" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_float_range () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let f = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_int_range () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_lognormal_sigma0 () =
  let r = Rng.create 9 in
  Alcotest.(check (float 0.0)) "exact 1" 1.0 (Rng.lognormal r ~sigma:0.0)

let test_gaussian_moments () =
  let r = Rng.create 11 in
  let n = 20000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let g = Rng.gaussian r in
    sum := !sum +. g;
    sq := !sq +. (g *. g)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean ~ 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "var ~ 1" true (Float.abs (var -. 1.0) < 0.1)

(* --- device --- *)

let test_initial_state () =
  let d = fresh_device () in
  Alcotest.(check bool) "starts HRS (0)" false (Device.state d)

let test_table1_electrically () =
  (* Table I: (s, TE, BE) -> next state, driven through voltage pulses *)
  List.iter
    (fun (s, te, be, expect) ->
      let d = fresh_device () in
      Device.set_state d s;
      let v_te = if te then vw else 0.0 and v_be = if be then vw else 0.0 in
      ignore (Device.apply d ~v_te ~v_be);
      Alcotest.(check bool)
        (Printf.sprintf "V-op(%b,%b,%b)" s te be)
        expect (Device.state d))
    Mm_core.Vop.table1

let test_read_is_nondestructive () =
  let d = fresh_device () in
  Device.set_state d true;
  ignore (Device.apply d ~v_te:params.Device.v_read ~v_be:0.0);
  Alcotest.(check bool) "still LRS" true (Device.state d);
  Device.set_state d false;
  ignore (Device.apply d ~v_te:params.Device.v_read ~v_be:0.0);
  Alcotest.(check bool) "still HRS" false (Device.state d)

let test_read_current_contrast () =
  let d = fresh_device () in
  Device.set_state d true;
  let i_lrs = Device.read_current d in
  Device.set_state d false;
  let i_hrs = Device.read_current d in
  Alcotest.(check bool) "LRS conducts much more" true (i_lrs > 10.0 *. i_hrs)

let test_stuck_fault () =
  let d = fresh_device () in
  Device.inject_fault d (Device.Stuck_at false);
  ignore (Device.apply d ~v_te:vw ~v_be:0.0);
  Alcotest.(check bool) "stuck at 0" false (Device.state d);
  Alcotest.(check bool) "fault visible" true (Device.fault d <> None)

let test_endurance () =
  let p = { params with Device.endurance = Some 3 } in
  let d = Device.create ~rng:(Rng.create 1) p in
  for _ = 1 to 3 do
    ignore (Device.apply d ~v_te:vw ~v_be:0.0);
    ignore (Device.apply d ~v_te:0.0 ~v_be:vw)
  done;
  Alcotest.(check int) "3 switches then stuck" 3 (Device.switch_count d);
  let before = Device.state d in
  ignore (Device.apply d ~v_te:vw ~v_be:0.0);
  Alcotest.(check bool) "no further switching" before (Device.state d)

let test_switch_count () =
  let d = fresh_device () in
  ignore (Device.apply d ~v_te:vw ~v_be:0.0);
  ignore (Device.apply d ~v_te:vw ~v_be:0.0);
  (* second SET is a no-op: already LRS *)
  Alcotest.(check int) "one switch" 1 (Device.switch_count d);
  ignore (Device.apply d ~v_te:0.0 ~v_be:vw);
  Alcotest.(check int) "two switches" 2 (Device.switch_count d)

let test_invalid_params () =
  Alcotest.check_raises "r_lrs >= r_hrs"
    (Invalid_argument "Device.create: r_lrs >= r_hrs") (fun () ->
      ignore
        (Device.create ~rng:(Rng.create 1)
           { params with Device.r_lrs = 1e9; r_hrs = 1e6 }))

let prop_d2d_spread =
  QCheck.Test.make ~name:"D2D spread keeps LRS/HRS separated at sigma 0.15"
    ~count:100
    (QCheck.make QCheck.Gen.(int_range 0 10000))
    (fun seed ->
      let p = Variation.apply Variation.moderate params in
      let d = Device.create ~rng:(Rng.create seed) p in
      Device.set_state d true;
      let r_lrs = Device.resistance d in
      Device.set_state d false;
      let r_hrs = Device.resistance d in
      r_lrs < r_hrs)

(* --- variation --- *)

let test_variation_presets () =
  Alcotest.(check (float 0.0)) "ideal d2d" 0.0 Variation.ideal.Variation.sigma_d2d;
  Alcotest.(check bool) "sweep ordered" true
    (let sigmas = List.map (fun v -> v.Variation.sigma_c2c) Variation.sweep in
     List.sort compare sigmas = sigmas);
  let p = Variation.apply Variation.harsh params in
  Alcotest.(check (float 0.0)) "applied" 0.35 p.Device.sigma_d2d

(* --- line array --- *)

let make_array n = Line_array.create ~rng:(Rng.create 5) ~n ()

let test_vop_cycle_states () =
  let arr = make_array 4 in
  Line_array.set_states arr [ (0, false); (1, false); (2, true); (3, true) ];
  (* TE pulses: cell0 SET, cell1 hold (dummy), cell2 RESET via BE... with
     shared BE = false: cell0 te=1 -> SET; cell1 None -> hold; cell2 te=0 ->
     hold (BE=0); cell3 te... *)
  let te = function 0 -> Some true | 1 -> None | 2 -> Some false | _ -> None in
  ignore (Line_array.vop_cycle arr ~te ~be:false);
  Alcotest.(check (list bool)) "after cycle 1" [ true; false; true; true ]
    (Array.to_list (Line_array.states arr));
  (* shared BE pulse resets cells whose TE is low *)
  let te = function 0 -> Some true | _ -> Some false in
  ignore (Line_array.vop_cycle arr ~te ~be:true);
  Alcotest.(check (list bool)) "after cycle 2" [ true; false; false; false ]
    (Array.to_list (Line_array.states arr))

let test_dummy_cycle_holds () =
  let arr = make_array 2 in
  Line_array.set_states arr [ (0, true); (1, false) ];
  (* all-dummy cycle with BE pulse: TE mirrors BE, nothing changes *)
  ignore (Line_array.vop_cycle arr ~te:(fun _ -> None) ~be:true);
  Alcotest.(check (list bool)) "unchanged" [ true; false ]
    (Array.to_list (Line_array.states arr))

let test_magic_nor_truth () =
  List.iter
    (fun (a, b) ->
      let arr = make_array 3 in
      Line_array.set_states arr [ (0, a); (1, b); (2, true) ];
      ignore (Line_array.magic_nor arr ~in1:0 ~in2:1 ~out:2);
      let expect = not (a || b) in
      Alcotest.(check bool) (Printf.sprintf "nor(%b,%b)" a b) expect
        (Line_array.states arr).(2);
      (* ideal conditions: inputs survive *)
      Alcotest.(check bool) "in1 preserved" a (Line_array.states arr).(0);
      Alcotest.(check bool) "in2 preserved" b (Line_array.states arr).(1))
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_magic_nor_bad_cells () =
  let arr = make_array 3 in
  Alcotest.check_raises "output overlaps input"
    (Invalid_argument "Line_array.magic_nor") (fun () ->
      ignore (Line_array.magic_nor arr ~in1:0 ~in2:2 ~out:2))

let test_magic_not_degenerate () =
  (* in1 = in2 is the 2-device MAGIC NOT *)
  List.iter
    (fun a ->
      let arr = make_array 2 in
      Line_array.set_states arr [ (0, a); (1, true) ];
      ignore (Line_array.magic_nor arr ~in1:0 ~in2:0 ~out:1);
      Alcotest.(check bool) (Printf.sprintf "not(%b)" a) (not a)
        (Line_array.states arr).(1))
    [ false; true ]

let test_read () =
  let arr = make_array 2 in
  Line_array.set_states arr [ (0, true); (1, false) ];
  let v0, i0 = Line_array.read arr 0 in
  let v1, i1 = Line_array.read arr 1 in
  Alcotest.(check bool) "cell0 = 1" true v0;
  Alcotest.(check bool) "cell1 = 0" false v1;
  Alcotest.(check bool) "current contrast" true (i0 > 10.0 *. i1)

let test_read_cycle_bad_cell () =
  let arr = make_array 2 in
  List.iter
    (fun i ->
      Alcotest.check_raises
        (Printf.sprintf "cell %d" i)
        (Invalid_argument "Line_array.read_cycle")
        (fun () -> ignore (Line_array.read_cycle arr i)))
    [ -1; 2; 99 ]

let test_total_switches () =
  let arr = make_array 2 in
  Alcotest.(check int) "fresh" 0 (Line_array.total_switches arr);
  ignore (Line_array.vop_cycle arr ~te:(fun _ -> Some true) ~be:false);
  Alcotest.(check int) "both set" 2 (Line_array.total_switches arr)

(* --- waveform --- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_waveform () =
  let arr = make_array 2 in
  let wf = Waveform.create arr in
  Waveform.record wf ~label:"step 1"
    (Line_array.vop_cycle arr ~te:(fun _ -> Some true) ~be:false);
  Waveform.record wf ~label:"read" (Line_array.read_cycle arr 0);
  Alcotest.(check int) "rows" 2 (Waveform.length wf);
  (match Waveform.final_states ~params wf with
   | Some states ->
     Alcotest.(check (list bool)) "final states" [ true; true ]
       (Array.to_list states)
   | None -> Alcotest.fail "expected states");
  let rendered = Format.asprintf "%a" Waveform.pp wf in
  Alcotest.(check bool) "mentions resistance" true
    (contains rendered "R[cell 1]")

let () =
  Alcotest.run "device"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "lognormal sigma0" `Quick test_lognormal_sigma0;
          Alcotest.test_case "gaussian moments" `Slow test_gaussian_moments;
        ] );
      ( "device",
        [
          Alcotest.test_case "initial state" `Quick test_initial_state;
          Alcotest.test_case "Table I electrically" `Quick test_table1_electrically;
          Alcotest.test_case "read nondestructive" `Quick test_read_is_nondestructive;
          Alcotest.test_case "read contrast" `Quick test_read_current_contrast;
          Alcotest.test_case "stuck fault" `Quick test_stuck_fault;
          Alcotest.test_case "endurance" `Quick test_endurance;
          Alcotest.test_case "switch count" `Quick test_switch_count;
          Alcotest.test_case "invalid params" `Quick test_invalid_params;
          qtest prop_d2d_spread;
        ] );
      ( "variation",
        [ Alcotest.test_case "presets" `Quick test_variation_presets ] );
      ( "line_array",
        [
          Alcotest.test_case "vop cycle" `Quick test_vop_cycle_states;
          Alcotest.test_case "dummy holds" `Quick test_dummy_cycle_holds;
          Alcotest.test_case "magic nor truth" `Quick test_magic_nor_truth;
          Alcotest.test_case "magic nor bad cells" `Quick test_magic_nor_bad_cells;
          Alcotest.test_case "magic not degenerate" `Quick test_magic_not_degenerate;
          Alcotest.test_case "read" `Quick test_read;
          Alcotest.test_case "read cycle bad cell" `Quick test_read_cycle_bad_cell;
          Alcotest.test_case "total switches" `Quick test_total_switches;
        ] );
      ("waveform", [ Alcotest.test_case "record/render" `Quick test_waveform ]);
    ]
