(* Why mixed-mode: error rates of an MM circuit vs its R-only counterpart
   as device variation grows, plus endurance pressure and a stuck-at fault
   demonstration (Sections II-B and III of the paper).

   Run with: dune exec examples/reliability_study.exe *)

module Gf = Mm_boolfun.Gf
module C = Mm_core.Circuit
module Baseline = Mm_core.Baseline
module Reference = Mm_core.Reference
module Reliability = Mm_core.Reliability
module Schedule = Mm_core.Schedule
module Table = Mm_report.Table
module Variation = Mm_device.Variation
module Device = Mm_device.Device
module Line_array = Mm_device.Line_array
module Rng = Mm_device.Rng

let () =
  let spec = Gf.mul_spec 2 in
  let mm = Reference.gf4_mul_circuit () in
  let r_only = Baseline.nor_network spec in

  Printf.printf
    "GF(2^2) multiplier two ways:\n\
    \  mixed-mode: %2d R-ops, cascade depth %d, %2d devices, %2d steps\n\
    \  R-only    : %2d R-ops, cascade depth %d, %2d devices, %2d steps\n\n"
    (C.n_rops mm) (C.rop_depth mm) (C.n_devices mm) (C.n_steps mm)
    (C.n_rops r_only) (C.rop_depth r_only) (C.n_devices r_only)
    (C.n_steps r_only);

  (* variation sweep *)
  let study = Reliability.run spec ~mm ~r_only ~trials:25 ~seed:7 in
  let t = Table.create [ "variation"; "sigma"; "MM error"; "R-only error" ] in
  List.iter
    (fun p ->
      Table.add_row t
        [
          p.Reliability.variation.Variation.label;
          Printf.sprintf "%.2f" p.Reliability.variation.Variation.sigma_c2c;
          Printf.sprintf "%.4f" p.Reliability.mm_error;
          Printf.sprintf "%.4f" p.Reliability.r_only_error;
        ])
    study.Reliability.points;
  Table.print t;

  (* endurance pressure: worst-case switching events in one evaluation *)
  Printf.printf "\nWorst-case switching events per evaluation:\n";
  Printf.printf "  mixed-mode: %d\n" (Reliability.max_switches_per_run mm);
  Printf.printf "  R-only    : %d\n" (Reliability.max_switches_per_run r_only);

  (* a stuck-at fault on one R-op output cell: the line array makes the
     broken device easy to identify and replace (the paper's argument for
     1D arrays over crossbars) *)
  print_newline ();
  print_endline "Stuck-at-0 fault injected on the first R-op output cell:";
  let plan = Schedule.plan mm in
  let first_rop_cell =
    let roles = Schedule.roles plan in
    let cell = ref (-1) in
    Array.iteri
      (fun i role ->
        match role with
        | Schedule.Rop_out_cell 0 -> cell := i
        | Schedule.Rop_out_cell _ | Schedule.Leg_cell _ | Schedule.Literal_cell _
          -> ())
      roles;
    !cell
  in
  let errors = ref 0 in
  for input = 0 to 15 do
    let r =
      Schedule.execute ~faults:[ (first_rop_cell, Device.Stuck_at false) ] plan
        ~input ()
    in
    let word =
      (if r.Schedule.outputs.(0) then 1 else 0)
      lor if r.Schedule.outputs.(1) then 2 else 0
    in
    if word <> Mm_boolfun.Spec.eval spec input then incr errors
  done;
  Printf.printf
    "  cell %d stuck at 0: %d/16 multiplications now read back wrong -\n\
    \  detectable in one input sweep, and on a 1D line array the broken cell\n\
    \  is individually replaceable, unlike a crossbar.\n"
    (first_rop_cell + 1) !errors;
  ignore (Line_array.create ~rng:(Rng.create 1) ~n:1 ())
