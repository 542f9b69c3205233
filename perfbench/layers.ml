(* The per-layer metrics of a traced run. Every workload reports all of
   them, in this order; a layer the workload never enters reads 0. *)

let all =
  [ (* minimize: exact synthesis *)
    ("solver.s", "s"); ("solver.conflicts", "count");
    ("solver.propagations", "count"); ("solver.decisions", "count");
    ("solver.props_per_s", "1/s"); ("ladder.s", "s"); ("synth.s", "s");
    ("encode.clauses", "count"); ("synth.points", "count");
    ("synth.unsat_points", "count"); ("synth.timeouts", "count");
    ("synth.fn_p50_ms", "ms"); ("synth.fn_p75_ms", "ms"); ("npn.s", "s");
    ("cache.s", "s"); ("cache.misses", "count"); ("engine.verify_s", "s");
    (* compile: mapping, resynthesis and both backends *)
    ("aig.s", "s"); ("aig.ands", "count"); ("mapper.s", "s");
    ("blocklib.probe_s", "s"); ("blocklib.lookups", "count");
    ("blocklib.memo_hits", "count"); ("stitch.s", "s");
    ("schedule.verify_s", "s"); ("place.s", "s"); ("xsched.s", "s");
    ("xsched.polish_gain", "count"); ("xstitch.verify_s", "s");
    ("xstitch.diff_s", "s"); ("resyn.s", "s"); ("resyn.sweep_s", "s");
    ("resyn.windows_s", "s"); ("resyn.windows_attempted", "count");
    ("resyn.windows_accepted", "count"); ("resyn.steps_saved", "count");
    (* serve: one request's round trip *)
    ("engine.s", "s"); ("atlas.s", "s"); ("wire.s", "s");
    ("server.rest_s", "s"); ("atlas.hits", "count"); ("cache.hits", "count");
    (* the traced run itself *)
    ("trace.wall_s", "s"); ("trace.overhead_s", "s");
    ("trace.unattributed_pct", "%") ]

(* [values] name the workload's layers; [traced_wall] is the traced pass,
   [plain_wall] the same pass untraced, [attributed] the self time the
   pass's spans charge to named layers. *)
let report ~traced_wall ~plain_wall ~attributed values =
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k all) then invalid_arg ("Layers.report: " ^ k))
    values;
  let values =
    values
    @ [ ("trace.wall_s", traced_wall);
        ("trace.overhead_s", traced_wall -. plain_wall);
        ("trace.unattributed_pct", 100. *. (traced_wall -. attributed) /. traced_wall) ]
  in
  List.map
    (fun (name, unit_) ->
      Util.metric name unit_
        (Option.value ~default:0. (List.assoc_opt name values)))
    all
