module Spec = Mm_boolfun.Spec
module Variation = Mm_device.Variation

type point = { variation : Variation.t; mm_error : float; r_only_error : float }

type study = {
  spec_name : string;
  mm_circuit : Circuit.t;
  r_only_circuit : Circuit.t;
  points : point list;
}

let run spec ~mm ~r_only ~trials ~seed =
  let mm_plan = Schedule.plan mm in
  let r_plan = Schedule.plan r_only in
  let points =
    List.map
      (fun variation ->
        {
          variation;
          mm_error = Schedule.error_rate mm_plan spec ~variation ~trials ~seed;
          r_only_error = Schedule.error_rate r_plan spec ~variation ~trials ~seed;
        })
      Variation.sweep
  in
  { spec_name = Spec.name spec; mm_circuit = mm; r_only_circuit = r_only; points }

let max_switches_per_run c =
  let plan = Schedule.plan c in
  let worst = ref 0 in
  for input = 0 to (1 lsl c.Circuit.arity) - 1 do
    worst := max !worst (Schedule.execute plan ~input ()).Schedule.switches
  done;
  !worst
