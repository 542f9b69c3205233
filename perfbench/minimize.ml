(* Workload [minimize]: cold exact synthesis of single 4-input functions
   through Engine.probe_class, the path behind [synth --minimize] and
   [batch]. Nearly all of its time is CDCL search (Mm_sat) inside the
   incremental ladder (Mm_core.Ladder/Synth). *)

module Tt = Mm_boolfun.Truth_table
module Spec = Mm_boolfun.Spec
module Npn = Mm_engine.Npn
module Engine = Mm_engine.Engine
module Cache = Mm_engine.Cache
module Synth = Mm_core.Synth
module Circuit = Mm_core.Circuit
module Solver = Mm_sat.Solver
module Json = Mm_report.Json
open Util

(* BENCH_ladder's caps; every other knob is the engine default (any-V-op
   taps, 60 s per SAT call). *)
let max_rops = 4
let max_steps = 3
let answers_path = "perfbench/minimize_answers.txt"

(* Functions per pass: a fixed systematic sample of the known-answer
   classes (one from the middle of each of [sample_size] equal-count strata
   of the classes ordered by solver cost), so every pass and every seed
   does the same solver work with the same mix of easy and hard classes. A
   seeded draw of classes would move a pass's wall time by 4-9% between
   seeds through its composition alone. *)
let sample_size = 16

let config cache =
  Engine.config ~max_rops ~max_steps ~domains:1 ~cache ()

(* ---- known answers --------------------------------------------------- *)

(* One 4-input NPN class with N_R <= 2: its representative, the minimal
   (N_R, N_VS) proven by the monolithic oracle, and the conflicts the
   incremental ladder needed for it when the file was generated (a fixed
   key that orders the classes for the sample; never compared against a
   run). *)
type answer = { rep : int; n_r : int; n_vs : int; cost : int }

let load_answers () =
  read_file answers_path |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun l ->
         Scanf.sscanf l "%x %d %d %d" (fun rep n_r n_vs cost ->
             { rep; n_r; n_vs; cost }))
  |> Array.of_list

let conflicts (r : Synth.report) =
  List.fold_left
    (fun acc (a : Synth.attempt) -> acc + a.Synth.solver_stats.Solver.conflicts)
    0 r.Synth.attempts

(* [perfbench gen-answers] regenerates the file: an incremental screen at
   [max_rops:2] selects the classes, the monolithic fresh-solver-per-point
   oracle (kept for testing) proves each answer with both minimality
   proofs, and the incremental path must agree with it. *)
let gen_answers () =
  print_string
    "# perfbench minimize known answers: every 4-input NPN class whose\n\
     # minimal R-op count is <= 2 under max_rops 4, max_steps 3, any-V-op taps.\n\
     # Answers from Synth.minimize ~incremental:false (both proofs complete);\n\
     # cost = conflicts of the incremental ladder, used only to order the sample.\n\
     # rep n_r n_vs cost\n";
  List.iter
    (fun rep ->
      let spec = Spec.make ~name:"class" [| rep |] in
      let screen =
        Synth.minimize ~max_rops:2 ~max_steps ~timeout_per_call:600. spec
      in
      match screen.Synth.best with
      | None -> ()
      | Some _ ->
        let dims (r : Synth.report) =
          match r.Synth.best with
          | Some (c, _)
            when r.Synth.rops_proven_minimal && r.Synth.steps_proven_minimal ->
            (Circuit.n_rops c, Circuit.steps_per_leg c)
          | _ -> failwith (Printf.sprintf "class %04x: no proven answer" (Tt.to_int rep))
        in
        let oracle =
          Synth.minimize ~incremental:false ~max_rops ~max_steps
            ~timeout_per_call:600. spec
        in
        let inc = Synth.minimize ~max_rops ~max_steps ~timeout_per_call:600. spec in
        let n_r, n_vs = dims oracle in
        if dims inc <> (n_r, n_vs) then
          failwith (Printf.sprintf "class %04x: ladder disagrees with the oracle"
                      (Tt.to_int rep));
        Printf.printf "%04x %d %d %d\n%!" (Tt.to_int rep) n_r n_vs (conflicts inc))
    (Npn.class_reps 4)

(* ---- inputs ---------------------------------------------------------- *)

type input = { answer : answer; spec : Spec.t }

(* A random member of the class: the representative under a random input
   permutation and input negation, redrawn until the engine's solve target
   for it is the representative itself (a self-complementary class may
   otherwise be solved as the complement), so each class's solver work and
   known answer do not depend on the seed. The representative itself always
   qualifies (Npn.canon tries the identity first), so it ends the search. *)
let member st rep =
  let rec go tries =
    let perm = Util.shuffle st [| 1; 2; 3; 4 |] in
    let neg = Array.init 4 (fun _ -> Random.State.bool st) in
    let f = Npn.apply (Npn.make ~perm ~neg ~out_neg:false) rep in
    let _, t = Npn.canon f in
    if Tt.equal (Npn.apply (Npn.input_only t) f) rep then f
    else if tries = 0 then rep
    else go (tries - 1)
  in
  go 64

(* The seed draws each sampled class's member function and the order in
   which the pass probes them. *)
let draw ~seed answers =
  let st = Util.rng seed in
  let sorted = Array.copy answers in
  Array.sort (fun a b -> compare (a.cost, a.rep) (b.cost, b.rep)) sorted;
  let n = Array.length sorted in
  let sample =
    Array.init sample_size (fun k -> sorted.(((2 * k) + 1) * n / (2 * sample_size)))
  in
  Util.shuffle st sample
  |> Array.map (fun a ->
         let f = member st (Tt.of_int 4 a.rep) in
         { answer = a;
           spec = Spec.make ~name:(Printf.sprintf "f%04x" (Tt.to_int f)) [| f |] })

(* ---- one pass -------------------------------------------------------- *)

type outcome = {
  input : input;
  latency : float;
  probe : Engine.probe option;
}

(* Probe every drawn function on a fresh cache, timing each call; also
   returns the cache's miss count. *)
let pass inputs =
  let cache = Cache.create () in
  let cfg = config cache in
  let outcomes =
    Array.map
      (fun input ->
        let probe, latency = time (fun () -> Engine.probe_class cfg input.spec) in
        { input; latency; probe })
      inputs
  in
  (outcomes, (Cache.counters cache).Cache.misses)

let attempts_of (p : Engine.probe) = p.Engine.probe_report.Synth.attempts

let count_verdict v (p : Engine.probe) =
  List.length (List.filter (fun (a : Synth.attempt) -> a.Synth.verdict = v)
                 (attempts_of p))

(* Line-array cycles of one evaluation: one per V-step (legs run in
   parallel), one per R-op and one readout per output — the count
   Schedule.execute reports. *)
let line_cycles c = Circuit.n_steps c + Circuit.n_outputs c

(* Reasons the outcome is wrong; empty when it is right. *)
let problems_of o =
  let a = o.input.answer and spec = o.input.spec in
  match o.probe with
  | None -> [ "no circuit" ]
  | Some p ->
    let c = p.Engine.probe_circuit in
    List.filter_map
      (fun (bad, msg) -> if bad then Some msg else None)
      [ (count_verdict Synth.Timeout p > 0, "a SAT call hit its budget");
        (not p.Engine.probe_optimal, "minimality proofs incomplete");
        (Circuit.realizes c spec <> Ok (), "circuit does not realize the function");
        ( (Circuit.n_rops c, Circuit.steps_per_leg c) <> (a.n_r, a.n_vs),
          Printf.sprintf "(N_R, N_VS) = (%d, %d), known answer (%d, %d)"
            (Circuit.n_rops c) (Circuit.steps_per_leg c) a.n_r a.n_vs ) ]

(* The pass's deterministic counts. *)
let counts_of outcomes ~cache_misses =
  let total f =
    Array.fold_left
      (fun acc o -> match o.probe with Some p -> acc + f p | None -> acc)
      0 outcomes
  in
  let solver f =
    total (fun p ->
        List.fold_left
          (fun acc (a : Synth.attempt) -> acc + f a.Synth.solver_stats)
          0 (attempts_of p))
  in
  [ ("synth.points", total (fun p -> List.length (attempts_of p)));
    ("synth.unsat_points", total (count_verdict Synth.Unsat));
    ("synth.timeouts", total (count_verdict Synth.Timeout));
    ("solver.conflicts", solver (fun s -> s.Solver.conflicts));
    ("solver.propagations", solver (fun s -> s.Solver.propagations));
    ("solver.decisions", solver (fun s -> s.Solver.decisions));
    ("cache.misses", cache_misses);
    ("steps_total", total (fun p -> Circuit.n_steps p.Engine.probe_circuit));
    ("cycles_total", total (fun p -> line_cycles p.Engine.probe_circuit)) ]

(* Failed operations, their reasons and the counts of one pass. *)
let check (outcomes, cache_misses) =
  let per_op =
    Array.to_list outcomes
    |> List.map (fun o ->
           List.map (fun m -> Spec.name o.input.spec ^ ": " ^ m) (problems_of o))
  in
  ( List.length (List.filter (( <> ) []) per_op),
    List.concat per_op,
    counts_of outcomes ~cache_misses )

(* ---- traced replay --------------------------------------------------- *)

(* Engine.probe_class replayed through its public steps: Npn.canon, then
   Synth.minimize with lookup/store hooks backed by Cache.find/Cache.add
   (the hooks bracket each fresh solve point), Npn.apply_circuit and
   Circuit.realizes. *)
let traced_probe (cfg : Engine.config) ~op (input : input) =
  let cache = Option.get cfg.Engine.cache in
  let timeout = cfg.Engine.timeout_per_call in
  Trace.span ~op "minimize.fn" (fun () ->
      let spec = input.spec in
      let target, t_in =
        Trace.span "npn" (fun () ->
            let f = Spec.output spec 0 in
            let _, t = Npn.canon f in
            let t_in = Npn.input_only t in
            (Spec.make ~name:"target" [| Npn.apply t_in f |], t_in))
      in
      let lookup ecfg =
        let hit =
          Trace.span "cache" (fun () ->
              Cache.find cache ~timeout (Cache.key ecfg target))
        in
        if hit = None then Trace.begin_span "ladder";
        hit
      in
      let store ecfg (a : Synth.attempt) =
        let s = a.Synth.solver_stats in
        Trace.add_measured "solver" ~dur:a.Synth.time_s
          ~args:
            [ ("conflicts", Json.Int s.Solver.conflicts);
              ("propagations", Json.Int s.Solver.propagations);
              ("decisions", Json.Int s.Solver.decisions);
              ("n_rops", Json.Int a.Synth.n_rops);
              ("steps", Json.Int a.Synth.steps_per_leg);
              ("clauses", Json.Int a.Synth.clauses) ];
        Trace.end_span "ladder";
        Trace.span "cache" (fun () ->
            Cache.add cache ~timeout (Cache.key ecfg target) a)
      in
      let report =
        Trace.span "synth" (fun () ->
            Synth.minimize ~timeout_per_call:timeout ?max_rops:cfg.Engine.max_rops
              ?max_steps:cfg.Engine.max_steps ~rop_kind:cfg.Engine.rop_kind
              ~taps:cfg.Engine.taps ~incremental:cfg.Engine.incremental ~lookup
              ~store target)
      in
      match report.Synth.best with
      | None -> None
      | Some (c, _) -> (
        let c_f =
          Trace.span "npn" (fun () -> Npn.apply_circuit (Npn.inverse t_in) c)
        in
        match Trace.span "engine.verify" (fun () -> Circuit.realizes c_f spec) with
        | Ok () ->
          Some
            { Engine.probe_class_rep = None;
              probe_circuit = c_f;
              probe_report = report;
              probe_exact = true;
              probe_optimal =
                report.Synth.rops_proven_minimal
                && report.Synth.steps_proven_minimal }
        | Error _ -> None))

let traced_pass inputs =
  let cache = Cache.create () in
  let cfg = config cache in
  let outcomes =
    Trace.span "pass" (fun () ->
        Array.mapi
          (fun op input ->
            let probe, latency = time (fun () -> traced_probe cfg ~op input) in
            { input; latency; probe })
          inputs)
  in
  (outcomes, (Cache.counters cache).Cache.misses)

(* Size of the shared encoding each function ended on (the ladder is
   rebuilt as the sweep climbs), summed over functions. *)
let encode_clauses outcomes =
  Array.fold_left
    (fun acc o ->
      match o.probe with
      | None -> acc
      | Some p ->
        acc
        + List.fold_left
            (fun m (a : Synth.attempt) -> max m a.Synth.clauses)
            0 (attempts_of p))
    0 outcomes

(* ---- runs ------------------------------------------------------------ *)

let setup_reps = 21

(* Loading the known answers and drawing the seed's functions; the cache
   and engine configuration are made fresh by every pass. *)
let setup ~seed = draw ~seed (load_answers ())

let run ~seed ~seconds ~trace ~trace_out =
  let setups = List.init setup_reps (fun _ -> time (fun () -> setup ~seed)) in
  let inputs = fst (List.hd setups) in
  let setup_s = median (List.map snd setups) in
  let n = Array.length inputs in
  let info =
    [ ( "classes",
        Json.List
          (Array.to_list
             (Array.map (fun i -> Json.String (Printf.sprintf "%04x" i.answer.rep))
                inputs)) ) ]
  in
  if not trace then begin
    let passes =
      repeat_passes ~seconds (fun () -> pass inputs)
        ~digest:(fun ((os, _) as p) -> (check p, Array.map (fun o -> o.latency) os))
    in
    let checked = List.map (fun ((c, _), _) -> c) passes in
    let peak_rss = peak_rss_mb () in
    let walls = List.map snd passes in
    (* per-function latency: each function's median over the passes *)
    let fn_ms =
      List.init n (fun i ->
          1000. *. median (List.map (fun ((_, lat), _) -> lat.(i)) passes))
    in
    let _, _, counts = List.hd checked in
    let count k = float_of_int (List.assoc k counts) in
    { attempted = n * List.length passes;
      failed = List.fold_left (fun acc (f, _, _) -> acc + f) 0 checked;
      problems =
        List.concat_map (fun (_, p, _) -> p) checked
        @ check_counts (List.map (fun (_, _, c) -> c) checked);
      counts;
      info =
        info
        @ [ ("pass_walls_s", Json.List (List.map (fun w -> Json.Float w) walls));
            ( "fn_ms_by_pass",
              Json.List
                (List.map
                   (fun ((_, lat), _) ->
                     Json.List (Array.to_list (Array.map (fun l -> Json.Float (1000. *. l)) lat)))
                   passes) ) ];
      metrics =
        [ metric "setup_s" "s" setup_s;
          metric "wall_s" "s" (median walls);
          metric "p50_ms" "ms" (median fn_ms);
          metric "p90_ms" "ms" (quantile 0.9 fn_ms);
          metric "peak_rss_mb" "MiB" peak_rss;
          metric "steps_total" "count" (count "steps_total");
          metric "cycles_total" "count" (count "cycles_total") ] }
  end
  else begin
    let plain, plain_wall = time (fun () -> pass inputs) in
    Trace.reset ();
    let traced, traced_wall = time (fun () -> traced_pass inputs) in
    let f1, p1, c1 = check plain and f2, p2, c2 = check traced in
    Trace.write_chrome ~path:trace_out
      ~meta:(Json.Obj [ ("workload", Json.String "minimize"); ("seed", Json.Int seed) ]);
    let fn_ms = Array.to_list (Array.map (fun o -> 1000. *. o.latency) (fst plain)) in
    let count k = float_of_int (List.assoc k c2) in
    let solver_s = Trace.total_time "solver" in
    let layers = [ "npn"; "cache"; "synth"; "ladder"; "solver"; "engine.verify" ] in
    { attempted = 2 * n;
      failed = f1 + f2;
      problems =
        p1 @ p2
        @ List.map (fun m -> "traced replay: " ^ m) (check_counts [ c1; c2 ]);
      counts = c2;
      info;
      metrics =
        Layers.report ~traced_wall ~plain_wall
          ~attributed:(sum (List.map (fun l -> Trace.self_time l) layers))
          [ ("solver.s", solver_s);
            ("solver.conflicts", count "solver.conflicts");
            ("solver.propagations", count "solver.propagations");
            ("solver.decisions", count "solver.decisions");
            ( "solver.props_per_s",
              if solver_s > 0. then count "solver.propagations" /. solver_s else 0. );
            ("ladder.s", Trace.self_time "ladder");
            ("synth.s", Trace.self_time "synth");
            ("encode.clauses", float_of_int (encode_clauses (fst traced)));
            ("synth.points", count "synth.points");
            ("synth.unsat_points", count "synth.unsat_points");
            ("synth.timeouts", count "synth.timeouts");
            ("synth.fn_p50_ms", median fn_ms);
            ("synth.fn_p75_ms", quantile 0.75 fn_ms);
            ("npn.s", Trace.self_time "npn");
            ("cache.s", Trace.self_time "cache");
            ("cache.misses", count "cache.misses");
            ("engine.verify_s", Trace.self_time "engine.verify") ] }
  end
