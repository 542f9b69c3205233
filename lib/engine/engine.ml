module Spec = Mm_boolfun.Spec
module Tt = Mm_boolfun.Truth_table
module Synth = Mm_core.Synth
module Circuit = Mm_core.Circuit
module Baseline = Mm_core.Baseline
module Heuristic = Mm_core.Heuristic

type degrade = No_fallback | Use_baseline | Use_heuristic

type config = {
  rop_kind : Mm_core.Rop.kind;
  taps : Mm_core.Encode.taps;
  timeout_per_call : float;
  max_rops : int option;
  max_steps : int option;
  domains : int;
  canonicalize : bool;
  cache : Cache.t option;
  deadline : float option;
  retries : int;
  retry_backoff_s : float;
  fallback : degrade;
  fault : Fault.t option;
  incremental : bool;
}

let config ?(rop_kind = Mm_core.Rop.Nor) ?(taps = Mm_core.Encode.Any_vop)
    ?(timeout_per_call = 60.) ?max_rops ?max_steps
    ?(domains = Pool.default_domains ()) ?(canonicalize = true) ?cache
    ?deadline ?(retries = 1) ?(retry_backoff_s = 0.05)
    ?(fallback = No_fallback) ?fault ?(incremental = true) () =
  { rop_kind; taps; timeout_per_call; max_rops; max_steps;
    domains = max 1 domains; canonicalize; cache;
    deadline; retries = max 0 retries;
    retry_backoff_s = Float.max 0. retry_backoff_s; fallback; fault;
    incremental }

type provenance = Exact | From_atlas | Via_baseline | Via_heuristic

type fail =
  | Crashed of { exn : string; backtrace : string }
  | Verify_failed of { row : int }

type job_result = {
  spec : Spec.t;
  class_rep : Tt.t option;
  shared : bool;
  report : Synth.report;
  circuit : Circuit.t option;
  provenance : provenance;
  optimal : bool;
  error : fail option;
}

type summary = {
  functions : int;
  classes : int;
  sat : int;
  atlas : int;
  unsat : int;
  timeout : int;
  fallbacks : int;
  retries_used : int;
  deadline_hit : bool;
  wall_s : float;
  solves_per_s : float;
  solver_calls : int;
  propagations : int;
  restarts : int;
  peak_learnts : int;
  props_per_s : float;
  cache : Cache.counters option;
}

(* How one input spec maps onto its solver job: the job solves
   [target_spec] (the NPN representative in this member's output polarity);
   [t_in] is the input-only transform with [apply t_in f = target]. *)
type plan = {
  target_spec : Spec.t;
  t_in : Npn.t;
  class_rep : Tt.t option;
}

let plan_of (cfg : config) spec =
  if
    cfg.canonicalize
    && Spec.output_count spec = 1
    && Spec.arity spec >= 1
    && Spec.arity spec <= 4
  then begin
    let f = Spec.output spec 0 in
    let rep, t = Npn.canon f in
    let t_in = Npn.input_only t in
    let target = Npn.apply t_in f in
    let name =
      Printf.sprintf "npn-n%d-%04x%s" (Tt.arity rep) (Tt.to_int rep)
        (if Npn.is_input_only t then "" else "-c")
    in
    { target_spec = Spec.make ~name [| target |]; t_in; class_rep = Some rep }
  end
  else
    { target_spec = spec;
      t_in = Npn.identity (Spec.arity spec);
      class_rep = None }

(* Group key: arity + output tables of the solve target (names excluded). *)
let group_key p =
  Printf.sprintf "%d|%s"
    (Spec.arity p.target_spec)
    (String.concat "|"
       (Array.to_list (Array.map Tt.to_string (Spec.outputs p.target_spec))))

let all_functions ~arity =
  if arity < 1 || arity > 4 then
    invalid_arg "Engine.all_functions: arity must be 1..4";
  Array.init
    (1 lsl (1 lsl arity))
    (fun v ->
      Spec.make
        ~name:(Printf.sprintf "f%d_%0*x" arity ((1 lsl arity) / 4 + 1) v)
        [| Tt.of_int arity v |])

let empty_report =
  { Synth.best = None; attempts = []; rops_proven_minimal = false;
    steps_proven_minimal = false }

type outcome = Sat | Unsat | Timeout | Fallback | Failed

let outcome r =
  match (r.circuit, r.provenance) with
  | Some _, (Exact | From_atlas) -> Sat
  | Some _, (Via_baseline | Via_heuristic) -> Fallback
  | None, _ when r.error <> None -> Failed
  | None, _ ->
    (* no attempts (starved, or an injected Unknown) or a timed-out attempt
       means the budget ran out; otherwise every dimension was refuted *)
    if
      r.report.Synth.attempts = []
      || List.exists
           (fun a -> a.Synth.verdict = Synth.Timeout)
           r.report.Synth.attempts
    then Timeout
    else Unsat

(* ---- the resolver: function → verified circuit ------------------------ *)

(* The atlas tier: the stored circuit of a canonical solve target whose
   R-op count is proven minimal. The atlas stores class targets only, so a
   plan that was not canonicalized is never looked up. *)
let atlas_answer ?tally ~r_only (cfg : config) p =
  match (cfg.cache, p.class_rep) with
  | Some c, Some _ -> (
    match
      Cache.find_class ?tally c
        { Cache.q_spec = p.target_spec;
          q_mode = (if r_only then `R_only else `Mixed);
          q_rop_kind = cfg.rop_kind; q_taps = cfg.taps;
          q_max_rops = cfg.max_rops;
          q_max_steps = (if r_only then None else cfg.max_steps) }
    with
    | Some a when a.Cache.a_rops_exact -> Some a
    | Some _ | None -> None)
  | _ -> None

(* Raised by a [~cache_only] minimization at the first ladder point the
   overlay lacks, before any solver is built for it. *)
exception Overlay_miss

(* One minimization of a solve target under [budget], memoized through the
   cache hooks; TIMEOUT entries record the budget they actually ran under.
   [~cache_only] answers from the overlay alone or raises [Overlay_miss].
   The cache probes are counted in [tally]. *)
let minimize ?tally ?(cache_only = false) ~r_only (cfg : config) ~key ~budget
    target =
  if Fault.forced_unknown cfg.fault ~stage:Fault.Solver ~key then empty_report
  else
    let lookup, store =
      match cfg.cache with
      | None -> (None, None)
      | Some c ->
        ( Some
            (fun ecfg ->
              match
                Fault.guard cfg.fault ~stage:Fault.Cache_read ~key (fun () ->
                    Cache.find ?tally c ~timeout:budget (Cache.key ecfg target))
              with
              | None when cache_only -> raise Overlay_miss
              | found -> found),
          Some
            (fun ecfg a -> Cache.add c ~timeout:budget (Cache.key ecfg target) a)
        )
    in
    if r_only then
      Synth.minimize_r_only ~timeout_per_call:budget ?max_rops:cfg.max_rops
        ~rop_kind:cfg.rop_kind ~incremental:cfg.incremental ?lookup ?store
        target
    else
      Synth.minimize ~timeout_per_call:budget ?max_rops:cfg.max_rops
        ?max_steps:cfg.max_steps ~rop_kind:cfg.rop_kind ~taps:cfg.taps
        ~incremental:cfg.incremental ?lookup ?store target

(* The fallback rule: a stand-in must realize the spec, keep the requested
   taps (no legs at all in R-only mode) and use the requested R-op kind.
   Both generators emit NOR circuits; the heuristic falls through to the
   baseline when its circuit breaks the rule. Under a [deadline] the
   heuristic's blocks get at most the time left, and none once it is gone. *)
let fallback ?(r_only = false) ?deadline (cfg : config) spec =
  let fits c =
    (if r_only then Circuit.n_legs c = 0
     else cfg.taps = Mm_core.Encode.Any_vop || Circuit.final_taps_only c)
    && Circuit.realizes c spec = Ok ()
  in
  let verified provenance make =
    match make () with
    | c when fits c -> Some (c, provenance)
    | _ -> None
    | exception _ -> None
  in
  let baseline () = verified Via_baseline (fun () -> Baseline.nor_network spec) in
  match cfg.fallback with
  | No_fallback -> None
  | _ when cfg.rop_kind <> Mm_core.Rop.Nor -> None
  | Use_baseline -> baseline ()
  | Use_heuristic when r_only -> baseline ()
  | Use_heuristic -> (
    let per_block = Float.min 5. cfg.timeout_per_call in
    match Option.bind deadline Deadline.remaining with
    | Some left when left <= 0. -> baseline ()
    | left -> (
      let per_block =
        Option.fold ~none:per_block ~some:(Float.min per_block) left
      in
      match
        verified Via_heuristic (fun () ->
            fst
              (Heuristic.synthesize ~taps:cfg.taps ~timeout_per_block:per_block
                 spec))
      with
      | Some _ as h -> h
      | None -> baseline ()))

(* What a class job produced; every member of the class is settled from it. *)
type answer =
  | Hit of Cache.class_answer  (* the atlas tier *)
  | Solved of Synth.report
  | Starved  (* the deadline refused a budget: the solver never ran *)
  | Raised of Pool.error  (* crashed through every retry *)

(* Pull a class answer back to one member, re-verify it on all rows, and
   give a member left without an answer the fallback. *)
let settle ?(r_only = false) ?deadline (cfg : config) ~key ~shared p spec
    answer =
  let r =
    { spec; class_rep = p.class_rep; shared; report = empty_report;
      circuit = None; provenance = Exact; optimal = false; error = None }
  in
  let pulled r provenance ~optimal c =
    match
      Fault.guard cfg.fault ~stage:Fault.Verify ~key (fun () ->
          let c_f = Npn.apply_circuit (Npn.inverse p.t_in) c in
          Result.map (fun () -> c_f) (Circuit.realizes c_f spec))
    with
    | Ok c_f -> { r with circuit = Some c_f; provenance; optimal }
    | Error row -> { r with error = Some (Verify_failed { row }) }
    | exception Fault.Injected exn ->
      { r with error = Some (Crashed { exn; backtrace = "" }) }
  in
  let r =
    match answer with
    | Hit a ->
      pulled r From_atlas
        ~optimal:(a.Cache.a_rops_exact && a.Cache.a_steps_exact)
        a.Cache.a_circuit
    | Solved ({ Synth.best = Some (c, _); _ } as report) ->
      pulled { r with report } Exact
        ~optimal:
          (report.Synth.rops_proven_minimal
          && report.Synth.steps_proven_minimal)
        c
    | Solved report -> { r with report }
    | Starved -> r
    | Raised e ->
      { r with
        error = Some (Crashed { exn = e.Pool.exn; backtrace = e.Pool.backtrace })
      }
  in
  match outcome r with
  | Timeout | Failed -> (
    match fallback ~r_only ?deadline cfg spec with
    | Some (c, provenance) -> { r with circuit = Some c; provenance }
    | None -> r)
  | Sat | Unsat | Fallback -> r

(* What a run reports: its outcomes, the solver attempts of its solved
   jobs, and the cache probes it counted in its own [tally] (never the
   shared counters, which an overlapping call may reset). *)
let summarize (cfg : config) ~t0 ~classes ~retries_used ~deadline_hit ~tally
    results answers =
  let wall_s = Unix.gettimeofday () -. t0 in
  let sat = ref 0 and atlas = ref 0 and unsat = ref 0 and timeout = ref 0 in
  let fallbacks = ref 0 in
  Array.iter
    (fun r ->
      match outcome r with
      | Sat -> incr (if r.provenance = From_atlas then atlas else sat)
      | Unsat -> incr unsat
      | Fallback ->
        incr fallbacks;
        incr timeout
      | Timeout | Failed -> incr timeout)
    results;
  let solver_calls, propagations, restarts, peak_learnts =
    Array.fold_left
      (fun acc a ->
        match a with
        | Some (Solved r) ->
          List.fold_left
            (fun (calls, props, rst, peak) a ->
              let st = a.Synth.solver_stats in
              ( calls + 1,
                props + st.Mm_sat.Solver.propagations,
                rst + st.Mm_sat.Solver.restarts,
                max peak st.Mm_sat.Solver.peak_learnts ))
            acc r.Synth.attempts
        | Some (Hit _ | Starved | Raised _) | None -> acc)
      (0, 0, 0, 0) answers
  in
  let functions = Array.length results in
  {
    functions;
    classes;
    sat = !sat;
    atlas = !atlas;
    unsat = !unsat;
    timeout = !timeout;
    fallbacks = !fallbacks;
    retries_used;
    deadline_hit;
    wall_s;
    solves_per_s =
      (if wall_s > 0. then float_of_int functions /. wall_s else 0.);
    solver_calls;
    propagations;
    restarts;
    peak_learnts;
    props_per_s =
      (if wall_s > 0. then float_of_int propagations /. wall_s else 0.);
    cache = Option.map (fun c -> Cache.tally_counters c tally) cfg.cache;
  }

let run (cfg : config) specs =
  let t0 = Unix.gettimeofday () in
  Option.iter Cache.reset_counters cfg.cache;
  let tally = Cache.tally () in
  let plans = Array.map (plan_of cfg) specs in
  (* one solver job per distinct target; remember who owns it *)
  let groups : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let job_of = Array.make (Array.length specs) 0 in
  let owners = ref [] and n_jobs = ref 0 in
  Array.iteri
    (fun i p ->
      let k = group_key p in
      match Hashtbl.find_opt groups k with
      | Some j -> job_of.(i) <- j
      | None ->
        Hashtbl.add groups k !n_jobs;
        job_of.(i) <- !n_jobs;
        owners := i :: !owners;
        incr n_jobs)
    plans;
  let owners = Array.of_list (List.rev !owners) in
  let n_jobs = Array.length owners in
  (* atlas tier: a job answered here never claims a deadline slice, never
     reaches the pool and never touches the solver *)
  let answers =
    Array.map
      (fun owner ->
        Option.map
          (fun a -> Hit a)
          (atlas_answer ~tally ~r_only:false cfg plans.(owner)))
      owners
  in
  let unanswered =
    List.filter (fun j -> Option.is_none answers.(j)) (List.init n_jobs Fun.id)
  in
  let mgr =
    Deadline.create ?wall:cfg.deadline ~pending:(List.length unanswered)
      ~default_per_call:cfg.timeout_per_call ()
  in
  (* One thunk per (job, attempt). The budget is claimed at job start so
     late starters inherit whatever the deadline still allows. A crashed
     job never reaches [Deadline.finish] and therefore stays pending across
     its retries. *)
  let make_job attempt j =
    let key = Printf.sprintf "job%d/try%d" j attempt in
    fun () ->
      Fault.guard cfg.fault ~stage:Fault.Worker ~key (fun () ->
          match Deadline.claim mgr with
          | None ->
            Deadline.finish mgr;
            Starved
          | Some budget ->
            let report =
              minimize ~tally ~r_only:false cfg ~key ~budget
                plans.(owners.(j)).target_spec
            in
            Deadline.finish mgr;
            Solved report)
  in
  (* Round 0 runs every job; each further round re-runs only the jobs that
     crashed, after a bounded exponential backoff, until the retry budget
     or the global deadline is exhausted. Timeouts and UNSATs are
     deterministic answers and are never retried. *)
  let retries_used = ref 0 in
  let pending = ref unanswered in
  let attempt = ref 0 in
  while !pending <> [] && !attempt <= cfg.retries do
    if !attempt > 0 then begin
      retries_used := !retries_used + List.length !pending;
      if not (Deadline.expired mgr) then
        Unix.sleepf
          (Float.min 1.0
             (cfg.retry_backoff_s *. (2. ** float_of_int (!attempt - 1))))
    end;
    let idxs = Array.of_list !pending in
    let outs = Pool.run ~domains:cfg.domains (Array.map (make_job !attempt) idxs) in
    pending := [];
    Array.iteri
      (fun k o ->
        let j = idxs.(k) in
        match o with
        | Ok a -> answers.(j) <- Some a
        | Error e ->
          answers.(j) <- Some (Raised e);
          if !attempt < cfg.retries then pending := j :: !pending)
      outs;
    pending := List.rev !pending;
    incr attempt
  done;
  (match cfg.cache with
   | Some c ->
     Cache.flush c;
     (* injected cache corruption: damage the file so the next run must
        salvage + quarantine it *)
     (match (cfg.fault, Cache.path c) with
      | Some f, Some p
        when Fault.decide f ~stage:Fault.Cache_write ~key:"flush" <> None
             && Sys.file_exists p ->
        Fault.corrupt_file p
      | _ -> ())
   | None -> ());
  let results =
    Array.mapi
      (fun i p ->
        let j = job_of.(i) in
        settle cfg ~deadline:mgr ~key:(Printf.sprintf "spec%d" i)
          ~shared:(owners.(j) <> i) p specs.(i)
          (match answers.(j) with
           | Some a -> a
           | None ->
             Raised { Pool.exn = "job never ran (engine bug)"; backtrace = "" }))
      plans
  in
  ( results,
    summarize cfg ~t0 ~classes:n_jobs ~retries_used:!retries_used
      ~deadline_hit:(Deadline.expired mgr) ~tally results answers )

type probe = {
  probe_class_rep : Tt.t option;
  probe_circuit : Circuit.t;
  probe_report : Synth.report;
  probe_exact : bool;
  probe_optimal : bool;
}

(* A probe is a run of one spec without the pool, the deadline or retries;
   its fault keys are the ones that spec would have in [run]. *)
let probe_class ?(r_only = false) (cfg : config) spec =
  let p = plan_of cfg spec in
  let answer =
    match atlas_answer ~r_only cfg p with
    | Some a -> Hit a
    | None ->
      Solved
        (minimize ~r_only cfg ~key:"job0/try0" ~budget:cfg.timeout_per_call
           p.target_spec)
  in
  let r = settle ~r_only cfg ~key:"spec0" ~shared:false p spec answer in
  Option.map
    (fun c ->
      { probe_class_rep = r.class_rep;
        probe_circuit = c;
        probe_report = r.report;
        probe_exact = outcome r = Sat;
        probe_optimal = r.optimal })
    r.circuit

(* [run] for one spec with the solver left out: the atlas tier, else the
   job's deadline claim and a cache-only minimization, then the same
   settle and summary. A budget or verdict that [run] would have to spend
   a solver, a fallback or a retry on is no answer here. So is a spec wider
   than the NPN plans': before its first cache probe, the minimization
   computes the QMC baseline's R-op bound, whose cost grows steeply with
   the arity (46 s for a random 12-input function), and [run] would pay it
   again. *)
let lookup (cfg : config) spec =
  match (cfg.cache, cfg.fault) with
  | None, _ | _, Some _ -> None
  | Some _, None when Spec.arity spec > 4 -> None
  | Some c, None ->
    let t0 = Unix.gettimeofday () in
    Cache.reset_counters c;
    let tally = Cache.tally () in
    let p = plan_of cfg spec in
    let mgr =
      Deadline.create ?wall:cfg.deadline ~pending:1
        ~default_per_call:cfg.timeout_per_call ()
    in
    let answer =
      match atlas_answer ~tally ~r_only:false cfg p with
      | Some a -> Some (Hit a)
      | None -> (
        match Deadline.claim mgr with
        | None -> None
        | Some budget -> (
          match
            minimize ~tally ~cache_only:true ~r_only:false cfg ~key:"job0/try0"
              ~budget p.target_spec
          with
          | report -> Some (Solved report)
          | exception Overlay_miss -> None))
    in
    Option.bind answer (fun a ->
        let r =
          settle { cfg with fallback = No_fallback } ~key:"spec0"
            ~shared:false p spec a
        in
        match outcome r with
        | Sat | Unsat ->
          Some
            ( r,
              summarize cfg ~t0 ~classes:1 ~retries_used:0
                ~deadline_hit:(Deadline.expired mgr) ~tally [| r |] [| Some a |]
            )
        | Timeout | Fallback | Failed -> None)

let empty_summary =
  { functions = 0; classes = 0; sat = 0; atlas = 0; unsat = 0; timeout = 0;
    fallbacks = 0; retries_used = 0; deadline_hit = false; wall_s = 0.;
    solves_per_s = 0.; solver_calls = 0; propagations = 0; restarts = 0;
    peak_learnts = 0; props_per_s = 0.; cache = None }

let add_summary a b =
  let cache =
    match (a.cache, b.cache) with
    | None, c | c, None -> c
    | Some x, Some y ->
      Some
        { Cache.hits = x.Cache.hits + y.Cache.hits;
          misses = x.Cache.misses + y.Cache.misses;
          stale = x.Cache.stale + y.Cache.stale;
          atlas_hits = x.Cache.atlas_hits + y.Cache.atlas_hits;
          (* per-run counters add; entries is a point-in-time cache size *)
          entries = max x.Cache.entries y.Cache.entries }
  in
  let wall_s = a.wall_s +. b.wall_s in
  {
    functions = a.functions + b.functions;
    classes = a.classes + b.classes;
    sat = a.sat + b.sat;
    atlas = a.atlas + b.atlas;
    unsat = a.unsat + b.unsat;
    timeout = a.timeout + b.timeout;
    fallbacks = a.fallbacks + b.fallbacks;
    retries_used = a.retries_used + b.retries_used;
    deadline_hit = a.deadline_hit || b.deadline_hit;
    wall_s;
    solves_per_s =
      (if wall_s > 0. then float_of_int (a.functions + b.functions) /. wall_s
       else 0.);
    solver_calls = a.solver_calls + b.solver_calls;
    propagations = a.propagations + b.propagations;
    restarts = a.restarts + b.restarts;
    peak_learnts = max a.peak_learnts b.peak_learnts;
    props_per_s =
      (if wall_s > 0. then
         float_of_int (a.propagations + b.propagations) /. wall_s
       else 0.);
    cache;
  }

let stats_to_json s =
  let open Mm_report.Json in
  Obj
    [
      (* v4 added restarts and a clause-sharing counter; v5 dropped the
         latter with the proof layer *)
      ("schema", String "mmsynth-stats-v5");
      ("functions", Int s.functions);
      ("classes", Int s.classes);
      ("sat", Int s.sat);
      ("atlas", Int s.atlas);
      ("unsat", Int s.unsat);
      ("timeout", Int s.timeout);
      ("fallbacks", Int s.fallbacks);
      ("retries_used", Int s.retries_used);
      ("deadline_hit", Bool s.deadline_hit);
      ("wall_s", Float s.wall_s);
      ("solves_per_s", Float s.solves_per_s);
      ("solver_calls", Int s.solver_calls);
      ("propagations", Int s.propagations);
      ("restarts", Int s.restarts);
      ("peak_learnts", Int s.peak_learnts);
      ("props_per_s", Float s.props_per_s);
      ( "cache",
        match s.cache with
        | None -> Null
        | Some c ->
          Obj
            [
              ("hits", Int c.Cache.hits);
              ("misses", Int c.Cache.misses);
              ("stale", Int c.Cache.stale);
              ("atlas_hits", Int c.Cache.atlas_hits);
              ("entries", Int c.Cache.entries);
            ] );
    ]

let pp_summary ppf s =
  Format.fprintf ppf
    "%d functions in %d classes: %d SAT, %d atlas, %d UNSAT, %d timeout; \
     %.2fs wall (%.1f functions/s, %d solver calls)"
    s.functions s.classes s.sat s.atlas s.unsat s.timeout s.wall_s
    s.solves_per_s s.solver_calls;
  if s.propagations > 0 then
    Format.fprintf ppf "@.solver: %d propagations (%.0f/s), peak learnt DB %d"
      s.propagations s.props_per_s s.peak_learnts;
  if s.fallbacks > 0 || s.retries_used > 0 || s.deadline_hit then
    Format.fprintf ppf
      "@.robustness: %d fallback circuits, %d retries%s"
      s.fallbacks s.retries_used
      (if s.deadline_hit then ", global deadline reached" else "");
  match s.cache with
  | None -> ()
  | Some c ->
    let probes = c.Cache.hits + c.Cache.misses + c.Cache.stale in
    Format.fprintf ppf "@.cache: %d hits / %d misses / %d stale (%.0f%% hit \
                        rate), %d entries"
      c.Cache.hits c.Cache.misses c.Cache.stale
      (if probes > 0 then 100. *. float_of_int c.Cache.hits /. float_of_int probes
       else 0.)
      c.Cache.entries;
    if c.Cache.atlas_hits > 0 then
      Format.fprintf ppf "; %d atlas hits" c.Cache.atlas_hits
