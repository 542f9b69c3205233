(* Workload [compile]: the library calls behind
   [mmsynth map --effort 3 --resyn] on the 1D line array, plus the crossbar
   backend on the same cover and the row-by-row diff [map --target xbar]
   performs. Its time is spread over the map-side layers (Mm_map, Mm_resyn)
   and many short SAT probes. *)

module Spec = Mm_boolfun.Spec
module Arith = Mm_boolfun.Arith
module Engine = Mm_engine.Engine
module Cache = Mm_engine.Cache
module Circuit = Mm_core.Circuit
module Schedule = Mm_core.Schedule
module Resyn = Mm_resyn.Resyn
module Json = Mm_report.Json
open Mm_map
open Util

(* [map --effort 3]: 5 s per SAT call and no R-op cap, final taps. At this
   budget the slowest probe (~0.5 s) has a tenfold margin, so no block
   depends on the clock. *)
let config cache =
  Engine.config ~timeout_per_call:5.0 ~domains:1 ~taps:Mm_core.Encode.Final_only
    ~cache ()

(* [map] defaults *)
let k = 4
let cut_limit = 8
let map_passes = 3
let rows = 16
let ports = 4

(* Adders and majorities share carry/majority-of-3 cut classes, so one
   cache per pass is shared across specs as a user's persistent cache
   would be. Parity specs are left out: their R-only blocks re-probe
   near the SAT budget. *)
let specs () =
  [ Arith.adder_bits 2; Arith.adder_bits 3; Arith.adder_bits 4;
    Arith.majority 5; Arith.majority 6; Arith.majority 7 ]

(* The seed sets the order in which specs meet the shared cache. *)
let setup ~seed = Util.shuffle (Util.rng seed) (Array.of_list (specs ()))

type outcome = {
  spec : Spec.t;
  steps : int;
  cycles : int;  (** crossbar compute cycles, readout excluded *)
  readout : int;
  blocks : int;
  not_optimal : int;  (** library blocks whose probe missed a proof *)
  lookups : int;
  memo_hits : int;
  windows_attempted : int;
  windows_accepted : int;
  steps_saved : int;
  polish_gain : int;
  ands : int;
  problems : string list;
}

(* Row-by-row agreement of the 1D and crossbar schedules, as
   [map --target xbar] checks it. *)
let diff plan sched spec =
  List.filter
    (fun input ->
      let line = Schedule.execute plan ~input () in
      let x = Xstitch.execute sched ~input () in
      Xstitch.word_of line.Schedule.outputs <> Xstitch.word_of x.Xstitch.outputs)
    (List.init (1 lsl Spec.arity spec) Fun.id)

let outcome spec ~lib ~(st : Stitch.t) ~ands ~(rs : Resyn.t)
    ~line_fail ~(sched : Xsched.t) ~xbar_fail ~disagree =
  let lookups, memo_hits, _, _ = Blocklib.stats lib in
  let entries = Blocklib.entries lib in
  let s = rs.Resyn.stats in
  let problems =
    List.filter_map
      (fun (bad, msg) -> if bad then Some msg else None)
      [ (line_fail <> [], "1D schedule fails simulation");
        (xbar_fail <> [], "crossbar schedule fails simulation");
        (disagree <> [], "1D and crossbar schedules disagree on some row");
        ( List.exists (fun (e : Blocklib.entry) -> not e.Blocklib.exact) entries,
          "a library block fell back to the baseline" );
        ( Circuit.realizes rs.Resyn.circuit spec <> Ok (),
          "resynthesized circuit does not realize the spec" ) ]
  in
  { spec;
    steps = Circuit.n_steps rs.Resyn.circuit;
    cycles = Xsched.n_cycles sched;
    readout = Array.length sched.Xsched.place.Place.outputs;
    blocks = List.length st.Stitch.placed;
    not_optimal =
      List.length (List.filter (fun (e : Blocklib.entry) -> not e.Blocklib.optimal) entries);
    lookups;
    memo_hits;
    windows_attempted = s.Resyn.windows_attempted;
    windows_accepted = s.Resyn.windows_accepted;
    steps_saved = s.Resyn.steps_before - s.Resyn.steps_after;
    polish_gain = sched.Xsched.polish_gain;
    ands;
    problems }

(* What the traced pass keeps per spec for the attribution-only calls. *)
type kept = { k_spec : Spec.t; k_aig : Aig.t; k_lib : Blocklib.t; k_stitched : Circuit.t }

(* One spec through the whole path; [t] spans each layer call when the
   pass is traced. *)
let compile_spec (t : Trace.tracer) cfg spec =
  let aig = t.span "aig" (fun () -> Aig.of_spec spec) in
  let lib, mapping =
    t.span "mapper+probes" (fun () ->
        let lib = Blocklib.create cfg in
        (lib, Mapper.compute aig ~lib ~k ~cut_limit ~passes:map_passes))
  in
  let st = t.span "stitch" (fun () -> Stitch.lower spec mapping) in
  let rs = t.span "resyn" (fun () -> Resyn.optimize cfg spec st.Stitch.circuit) in
  let plan, line_fail =
    t.span "schedule.verify" (fun () ->
        let plan = Schedule.plan rs.Resyn.circuit in
        (plan, Schedule.verify plan spec))
  in
  let place = t.span "place" (fun () -> Place.place ~rows mapping) in
  let sched = t.span "xsched" (fun () -> Xsched.build ~ports ~polish:true place) in
  let xbar_fail = t.span "xstitch.verify" (fun () -> Xstitch.verify sched spec) in
  let disagree = t.span "xstitch.diff" (fun () -> diff plan sched spec) in
  ( outcome spec ~lib ~st ~ands:(Aig.n_ands aig) ~rs ~line_fail ~sched ~xbar_fail
      ~disagree,
    { k_spec = spec; k_aig = aig; k_lib = lib; k_stitched = st.Stitch.circuit } )

let pass specs =
  let cache = Cache.create () in
  let cfg = config cache in
  let outs = Array.map (fun s -> fst (compile_spec Trace.off cfg s)) specs in
  (outs, (Cache.counters cache).Cache.misses)

(* Attribution-only calls, made after the traced pass on its warm cache so
   they change nothing the pass measured: Mapper.compute repeated on the
   warmed library (no probes), Resyn.sweep_merge alone, and
   Resyn.optimize without windows ([~max_width:1]). *)
let attribute cfg kept =
  Array.iteri
    (fun op kp ->
      Trace.span ~op ~aux:true "mapper.warm" (fun () ->
          ignore (Mapper.compute kp.k_aig ~lib:kp.k_lib ~k ~cut_limit ~passes:map_passes));
      Trace.span ~op ~aux:true "resyn.sweep_merge" (fun () ->
          ignore (Resyn.sweep_merge kp.k_stitched));
      Trace.span ~op ~aux:true "resyn.no_windows" (fun () ->
          ignore (Resyn.optimize ~max_width:1 cfg kp.k_spec kp.k_stitched)))
    kept

let counts_of (outs, cache_misses) =
  let total f = Array.fold_left (fun acc o -> acc + f o) 0 outs in
  [ ("steps_total", total (fun o -> o.steps));
    ("cycles_total", total (fun o -> o.cycles + o.readout));
    ("xbar_compute_cycles", total (fun o -> o.cycles));
    ("blocks", total (fun o -> o.blocks));
    ("synth.timeouts", total (fun o -> o.not_optimal));
    ("cache.misses", cache_misses);
    ("blocklib.lookups", total (fun o -> o.lookups));
    ("blocklib.memo_hits", total (fun o -> o.memo_hits));
    ("resyn.windows_attempted", total (fun o -> o.windows_attempted));
    ("resyn.windows_accepted", total (fun o -> o.windows_accepted)) ]

let check ((outs, _) as p) =
  let per_op =
    Array.to_list outs
    |> List.map (fun o -> List.map (fun m -> Spec.name o.spec ^ ": " ^ m) o.problems)
  in
  let counts = counts_of p in
  let budget =
    if List.assoc "synth.timeouts" counts > 0 then
      [ "a library probe hit its SAT budget (block proofs incomplete)" ]
    else []
  in
  (List.length (List.filter (( <> ) []) per_op), List.concat per_op @ budget, counts)

let setup_reps = 21

let run ~seed ~seconds ~trace ~trace_out =
  let setups = List.init setup_reps (fun _ -> time (fun () -> setup ~seed)) in
  let specs = fst (List.hd setups) in
  let setup_s = median (List.map snd setups) in
  let n = Array.length specs in
  let info =
    [ ("order", Json.List (Array.to_list (Array.map (fun s -> Json.String (Spec.name s)) specs))) ]
  in
  if not trace then begin
    let passes = repeat_passes ~seconds ~digest:check (fun () -> pass specs) in
    let checked = List.map fst passes in
    let peak_rss = peak_rss_mb () in
    let walls = List.map snd passes in
    let _, _, counts = List.hd checked in
    let count k = float_of_int (List.assoc k counts) in
    { attempted = n * List.length passes;
      failed = List.fold_left (fun acc (f, _, _) -> acc + f) 0 checked;
      problems =
        List.concat_map (fun (_, p, _) -> p) checked
        @ check_counts (List.map (fun (_, _, c) -> c) checked);
      counts;
      info = info @ [ ("pass_walls_s", Json.List (List.map (fun w -> Json.Float w) walls)) ];
      metrics =
        [ metric "setup_s" "s" setup_s;
          metric "wall_s" "s" (median walls);
          metric "p50_ms" "ms" (1000. *. median walls);
          metric "p90_ms" "ms" (1000. *. quantile 0.9 walls);
          metric "peak_rss_mb" "MiB" peak_rss;
          metric "steps_total" "count" (count "steps_total");
          metric "cycles_total" "count" (count "cycles_total") ] }
  end
  else begin
    let plain, plain_wall = time (fun () -> pass specs) in
    Trace.reset ();
    let cache = Cache.create () in
    let cfg = config cache in
    let (traced, kept), traced_wall =
      time (fun () ->
          Trace.span "pass" (fun () ->
              let r =
                Array.mapi
                  (fun op s ->
                    Trace.span ~op "compile.spec" (fun () -> compile_spec Trace.on cfg s))
                  specs
              in
              (Array.map fst r, Array.map snd r)))
    in
    let traced = (traced, (Cache.counters cache).Cache.misses) in
    attribute cfg kept;
    Trace.write_chrome ~path:trace_out
      ~meta:(Json.Obj [ ("workload", Json.String "compile"); ("seed", Json.Int seed) ]);
    let f1, p1, c1 = check plain and f2, p2, c2 = check traced in
    let count k = float_of_int (List.assoc k c2) in
    let self = Trace.self_time and aux = Trace.total_time ~aux:true in
    let total f = float_of_int (Array.fold_left (fun acc o -> acc + f o) 0 (fst traced)) in
    let layers =
      [ "aig"; "mapper+probes"; "stitch"; "resyn"; "schedule.verify"; "place";
        "xsched"; "xstitch.verify"; "xstitch.diff" ]
    in
    { attempted = 2 * n;
      failed = f1 + f2;
      problems =
        p1 @ p2 @ List.map (fun m -> "traced replay: " ^ m) (check_counts [ c1; c2 ]);
      counts = c2;
      info;
      metrics =
        Layers.report ~traced_wall ~plain_wall
          ~attributed:(sum (List.map (fun l -> self l) layers))
          [ ("aig.s", self "aig");
            ("aig.ands", total (fun o -> o.ands));
            ("mapper.s", aux "mapper.warm");
            ("blocklib.probe_s", self "mapper+probes" -. aux "mapper.warm");
            ("blocklib.lookups", count "blocklib.lookups");
            ("blocklib.memo_hits", count "blocklib.memo_hits");
            ("cache.misses", count "cache.misses");
            ("synth.timeouts", count "synth.timeouts");
            ("stitch.s", self "stitch");
            ("schedule.verify_s", self "schedule.verify");
            ("place.s", self "place");
            ("xsched.s", self "xsched");
            ("xsched.polish_gain", total (fun o -> o.polish_gain));
            ("xstitch.verify_s", self "xstitch.verify");
            ("xstitch.diff_s", self "xstitch.diff");
            ("resyn.s", self "resyn");
            ("resyn.sweep_s", aux "resyn.sweep_merge");
            ("resyn.windows_s", self "resyn" -. aux "resyn.no_windows");
            ("resyn.windows_attempted", count "resyn.windows_attempted");
            ("resyn.windows_accepted", count "resyn.windows_accepted");
            ("resyn.steps_saved", total (fun o -> o.steps_saved)) ] }
  end
