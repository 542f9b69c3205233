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
  (* A proof-orchestrator factory ([Mm_prove] lives above this library, so
     it arrives as a closure): given the solve target, yields the
     [Synth.minimize ?prove] hook that replaces per-point solving. *)
  prove :
    (Spec.t -> timeout:float -> Mm_core.Encode.config -> Synth.attempt) option;
}

let config ?(rop_kind = Mm_core.Rop.Nor) ?(taps = Mm_core.Encode.Any_vop)
    ?(timeout_per_call = 60.) ?max_rops ?max_steps
    ?(domains = Pool.default_domains ()) ?(canonicalize = true) ?cache
    ?deadline ?(retries = 1) ?(retry_backoff_s = 0.05)
    ?(fallback = No_fallback) ?fault ?(incremental = true) ?prove () =
  { rop_kind; taps; timeout_per_call; max_rops; max_steps;
    domains = max 1 domains; canonicalize; cache;
    deadline; retries = max 0 retries;
    retry_backoff_s = Float.max 0. retry_backoff_s; fallback; fault;
    incremental; prove }

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
  imported_clauses : int;
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

(* What one solver job produced. [Starved] = the deadline manager refused
   to grant a budget; the instance never reached the solver. *)
type job_out =
  | Solved of Synth.report
  | Starved

let fallback_circuit (cfg : config) spec =
  match cfg.fallback with
  | No_fallback -> None
  | Use_baseline -> (
    match Baseline.nor_network spec with
    | c when Circuit.realizes c spec = Ok () -> Some (c, Via_baseline)
    | _ -> None
    | exception _ -> None)
  | Use_heuristic -> (
    match
      Heuristic.synthesize
        ~timeout_per_block:(Float.min 5. cfg.timeout_per_call) spec
    with
    | c, _ when Circuit.realizes c spec = Ok () -> Some (c, Via_heuristic)
    | _ -> None
    | exception _ -> None)

(* Per-spec outcome before graceful degradation is applied. *)
type resolution =
  | R_circuit of Circuit.t * Synth.report
  | R_atlas of Circuit.t * Cache.class_answer
  | R_unsat of Synth.report
  | R_timeout of Synth.report
  | R_crashed of Pool.error * Synth.report
  | R_verify_failed of int * Synth.report

let run (cfg : config) specs =
  let t0 = Unix.gettimeofday () in
  Option.iter Cache.reset_counters cfg.cache;
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
  (* atlas tier: a whole job answered here never claims a deadline slice,
     never reaches the pool and never touches the solver — its members are
     resolved from the stored class circuit alone *)
  let atlas_answers : Cache.class_answer option array = Array.make n_jobs None in
  (match cfg.cache with
   | Some c when Cache.has_atlas c ->
     Array.iteri
       (fun j owner ->
         let target = plans.(owner).target_spec in
         if Spec.output_count target = 1 then
           match
             Cache.find_class c
               { Cache.q_spec = target; q_mode = `Mixed;
                 q_rop_kind = cfg.rop_kind; q_taps = cfg.taps;
                 q_max_rops = cfg.max_rops; q_max_steps = cfg.max_steps }
           with
           | Some a when a.Cache.a_rops_exact -> atlas_answers.(j) <- Some a
           | Some _ | None -> ())
       owners
   | Some _ | None -> ());
  let unanswered =
    List.filter
      (fun j -> atlas_answers.(j) = None)
      (List.init n_jobs Fun.id)
  in
  let mgr =
    Deadline.create ?wall:cfg.deadline ~pending:(List.length unanswered)
      ~default_per_call:cfg.timeout_per_call ()
  in
  (* One thunk per (job, attempt). The budget is claimed at job start so
     late starters inherit whatever the deadline still allows; the cache is
     probed/updated with that same budget, so TIMEOUT entries record the
     budget they actually ran under. A crashed job never reaches
     [Deadline.finish] and therefore stays pending across its retries. *)
  let make_job attempt j =
    let target = plans.(owners.(j)).target_spec in
    let key = Printf.sprintf "job%d/try%d" j attempt in
    fun () ->
      Fault.guard cfg.fault ~stage:Fault.Worker ~key (fun () ->
          match Deadline.claim mgr with
          | None ->
            Deadline.finish mgr;
            Starved
          | Some budget ->
            let report =
              if Fault.forced_unknown cfg.fault ~stage:Fault.Solver ~key then
                empty_report
              else begin
                let lookup, store =
                  match cfg.cache with
                  | None -> (None, None)
                  | Some c ->
                    ( Some
                        (fun ecfg ->
                          Fault.guard cfg.fault ~stage:Fault.Cache_read ~key
                            (fun () ->
                              Cache.find c ~timeout:budget
                                (Cache.key ecfg target))),
                      Some
                        (fun ecfg a ->
                          Cache.add c ~timeout:budget (Cache.key ecfg target) a)
                    )
                in
                Synth.minimize ~timeout_per_call:budget ?max_rops:cfg.max_rops
                  ?max_steps:cfg.max_steps ~rop_kind:cfg.rop_kind
                  ~taps:cfg.taps ~incremental:cfg.incremental
                  ?prove:(Option.map (fun f -> f target) cfg.prove)
                  ?lookup ?store target
              end
            in
            Deadline.finish mgr;
            Solved report)
  in
  (* Round 0 runs every job; each further round re-runs only the jobs that
     crashed, after a bounded exponential backoff, until the retry budget
     or the global deadline is exhausted. Timeouts and UNSATs are
     deterministic answers and are never retried. *)
  let outcomes : job_out Pool.outcome option array = Array.make n_jobs None in
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
    let jobs = Array.map (make_job !attempt) idxs in
    let outs = Pool.run ~domains:cfg.domains jobs in
    pending := [];
    Array.iteri
      (fun k o ->
        let j = idxs.(k) in
        outcomes.(j) <- Some o;
        match o.Pool.result with
        | Ok _ -> ()
        | Error _ -> if !attempt < cfg.retries then pending := j :: !pending)
      outs;
    pending := List.rev !pending;
    incr attempt
  done;
  (match cfg.cache with
   | Some c ->
     Cache.flush c;
     (* injected cache corruption: damage the flushed file so the next run
        must salvage + quarantine it *)
     (match cfg.fault with
      | Some f when Fault.decide f ~stage:Fault.Cache_write ~key:"flush" <> None
        ->
        Option.iter (fun p -> Fault.corrupt_file p) (Cache.path c)
      | _ -> ())
   | None -> ());
  let resolve i =
    let p = plans.(i) in
    let spec = specs.(i) in
    match atlas_answers.(job_of.(i)) with
    | Some a -> (
      (* pull the class circuit back to this member and re-verify on all
         rows, exactly as for a solver-produced circuit *)
      let c_f = Npn.apply_circuit (Npn.inverse p.t_in) a.Cache.a_circuit in
      match Circuit.realizes c_f spec with
      | Ok () -> R_atlas (c_f, a)
      | Error row -> R_verify_failed (row, empty_report))
    | None ->
    match (Array.get outcomes job_of.(i) : job_out Pool.outcome option) with
    | None -> R_crashed ({ Pool.exn = "job never ran (engine bug)"; backtrace = "" }, empty_report)
    | Some o -> (
      match o.Pool.result with
      | Error e -> R_crashed (e, empty_report)
      | Ok Starved -> R_timeout empty_report
      | Ok (Solved report) -> (
        match report.Synth.best with
        | None ->
          (* no attempts (injected Unknown) or a timed-out attempt means
             the budget ran out; otherwise every dimension was refuted *)
          if
            report.Synth.attempts = []
            || List.exists
                 (fun a -> a.Synth.verdict = Synth.Timeout)
                 report.Synth.attempts
          then R_timeout report
          else R_unsat report
        | Some (c, _) -> (
          (* the job solved [apply t_in f]; pull the circuit back to f *)
          match
            Fault.guard cfg.fault ~stage:Fault.Verify
              ~key:(Printf.sprintf "spec%d" i)
              (fun () ->
                let c_f = Npn.apply_circuit (Npn.inverse p.t_in) c in
                match Circuit.realizes c_f spec with
                | Ok () -> Ok c_f
                | Error row -> Error row)
          with
          | Ok c_f -> R_circuit (c_f, report)
          | Error row -> R_verify_failed (row, report)
          | exception Fault.Injected msg ->
            R_crashed ({ Pool.exn = msg; backtrace = "" }, report))))
  in
  let fallbacks = ref 0 in
  let results =
    Array.mapi
      (fun i p ->
        let spec = specs.(i) in
        let base ~report ~error =
          (* graceful degradation: the spec leaves the batch with *some*
             verified circuit, explicitly tagged non-optimal *)
          match fallback_circuit cfg spec with
          | Some (c, prov) ->
            incr fallbacks;
            { spec; class_rep = p.class_rep; shared = owners.(job_of.(i)) <> i;
              report; circuit = Some c; provenance = prov; optimal = false;
              error }
          | None ->
            { spec; class_rep = p.class_rep; shared = owners.(job_of.(i)) <> i;
              report; circuit = None; provenance = Exact; optimal = false;
              error }
        in
        match resolve i with
        | R_atlas (c, a) ->
          { spec; class_rep = p.class_rep; shared = owners.(job_of.(i)) <> i;
            report = empty_report; circuit = Some c; provenance = From_atlas;
            optimal = a.Cache.a_rops_exact && a.Cache.a_steps_exact;
            error = None }
        | R_circuit (c, report) ->
          { spec; class_rep = p.class_rep; shared = owners.(job_of.(i)) <> i;
            report; circuit = Some c; provenance = Exact;
            optimal =
              report.Synth.rops_proven_minimal
              && report.Synth.steps_proven_minimal;
            error = None }
        | R_unsat report ->
          { spec; class_rep = p.class_rep; shared = owners.(job_of.(i)) <> i;
            report; circuit = None; provenance = Exact; optimal = false;
            error = None }
        | R_timeout report -> base ~report ~error:None
        | R_crashed (e, report) ->
          base ~report
            ~error:(Some (Crashed { exn = e.Pool.exn; backtrace = e.Pool.backtrace }))
        | R_verify_failed (row, report) ->
          base ~report ~error:(Some (Verify_failed { row })))
      plans
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let sat = ref 0 and atlas = ref 0 and unsat = ref 0 and timeout = ref 0 in
  Array.iter
    (fun r ->
      match (r.circuit, r.provenance) with
      | Some _, Exact -> incr sat
      | Some _, From_atlas -> incr atlas
      | Some _, (Via_baseline | Via_heuristic) -> incr timeout
      | None, _ ->
        if r.error = None && r.report.Synth.attempts <> []
           && not
                (List.exists
                   (fun a -> a.Synth.verdict = Synth.Timeout)
                   r.report.Synth.attempts)
        then incr unsat
        else incr timeout)
    results;
  let solver_calls, propagations, restarts, imported_clauses, peak_learnts =
    Array.fold_left
      (fun (calls, props, rst, imp, peak) o ->
        match o with
        | Some { Pool.result = Ok (Solved r); _ } ->
          List.fold_left
            (fun (calls, props, rst, imp, peak) a ->
              let st = a.Synth.solver_stats in
              ( calls + 1,
                props + st.Mm_sat.Solver.propagations,
                rst + st.Mm_sat.Solver.restarts,
                imp + st.Mm_sat.Solver.imported_clauses,
                max peak st.Mm_sat.Solver.peak_learnts ))
            (calls, props, rst, imp, peak) r.Synth.attempts
        | Some _ | None -> (calls, props, rst, imp, peak))
      (0, 0, 0, 0, 0) outcomes
  in
  let summary =
    {
      functions = Array.length specs;
      classes = n_jobs;
      sat = !sat;
      atlas = !atlas;
      unsat = !unsat;
      timeout = !timeout;
      fallbacks = !fallbacks;
      retries_used = !retries_used;
      deadline_hit = Deadline.expired mgr;
      wall_s;
      solves_per_s =
        (if wall_s > 0. then float_of_int (Array.length specs) /. wall_s
         else 0.);
      solver_calls;
      propagations;
      restarts;
      imported_clauses;
      peak_learnts;
      props_per_s =
        (if wall_s > 0. then float_of_int propagations /. wall_s else 0.);
      cache = Option.map Cache.counters cfg.cache;
    }
  in
  (results, summary)

type probe = {
  probe_class_rep : Tt.t option;
  probe_circuit : Circuit.t;
  probe_report : Synth.report;
  probe_exact : bool;
  probe_optimal : bool;
}

let probe_class ?(r_only = false) (cfg : config) spec =
  let p = plan_of cfg spec in
  let target = p.target_spec in
  let atlas_probe () =
    match cfg.cache with
    | Some c when Cache.has_atlas c && Spec.output_count target = 1 -> (
      match
        Cache.find_class c
          { Cache.q_spec = target;
            q_mode = (if r_only then `R_only else `Mixed);
            q_rop_kind = cfg.rop_kind; q_taps = cfg.taps;
            q_max_rops = cfg.max_rops;
            q_max_steps = (if r_only then None else cfg.max_steps) }
      with
      | Some a when a.Cache.a_rops_exact -> (
        let c_f = Npn.apply_circuit (Npn.inverse p.t_in) a.Cache.a_circuit in
        match Circuit.realizes c_f spec with
        | Ok () ->
          Some
            { probe_class_rep = p.class_rep;
              probe_circuit = c_f;
              probe_report = empty_report;
              probe_exact = true;
              probe_optimal = a.Cache.a_rops_exact && a.Cache.a_steps_exact }
        | Error _ -> None)
      | Some _ | None -> None)
    | Some _ | None -> None
  in
  match atlas_probe () with
  | Some _ as hit -> hit
  | None ->
  let lookup, store =
    match cfg.cache with
    | None -> (None, None)
    | Some c ->
      ( Some
          (fun ecfg ->
            Cache.find c ~timeout:cfg.timeout_per_call (Cache.key ecfg target)),
        Some
          (fun ecfg a ->
            Cache.add c ~timeout:cfg.timeout_per_call (Cache.key ecfg target) a)
      )
  in
  let prove = Option.map (fun f -> f target) cfg.prove in
  let report =
    if r_only then
      Synth.minimize_r_only ~timeout_per_call:cfg.timeout_per_call
        ?max_rops:cfg.max_rops ~rop_kind:cfg.rop_kind
        ~incremental:cfg.incremental ?prove ?lookup ?store target
    else
      Synth.minimize ~timeout_per_call:cfg.timeout_per_call
        ?max_rops:cfg.max_rops ?max_steps:cfg.max_steps ~rop_kind:cfg.rop_kind
        ~taps:cfg.taps ~incremental:cfg.incremental ?prove ?lookup ?store
        target
  in
  match report.Synth.best with
  | None -> None
  | Some (c, _) -> (
    let c_f = Npn.apply_circuit (Npn.inverse p.t_in) c in
    match Circuit.realizes c_f spec with
    | Ok () ->
      Some
        { probe_class_rep = p.class_rep;
          probe_circuit = c_f;
          probe_report = report;
          probe_exact = true;
          probe_optimal =
            report.Synth.rops_proven_minimal
            && report.Synth.steps_proven_minimal }
    | Error _ -> None)

let empty_summary =
  { functions = 0; classes = 0; sat = 0; atlas = 0; unsat = 0; timeout = 0;
    fallbacks = 0; retries_used = 0; deadline_hit = false; wall_s = 0.;
    solves_per_s = 0.; solver_calls = 0; propagations = 0; restarts = 0;
    imported_clauses = 0; peak_learnts = 0; props_per_s = 0.; cache = None }

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
    imported_clauses = a.imported_clauses + b.imported_clauses;
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
      (* v4: restarts + imported_clauses counters (proof layer) *)
      ("schema", String "mmsynth-stats-v4");
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
      ("imported_clauses", Int s.imported_clauses);
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
  if s.propagations > 0 then begin
    Format.fprintf ppf "@.solver: %d propagations (%.0f/s), peak learnt DB %d"
      s.propagations s.props_per_s s.peak_learnts;
    if s.imported_clauses > 0 then
      Format.fprintf ppf ", %d imported clauses" s.imported_clauses
  end;
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
