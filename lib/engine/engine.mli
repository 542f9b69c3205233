(** Batch synthesis driver: canonicalize → atlas tier → cache-hooked
    minimization on the domain pool → pull back → verify → persist.

    {2 The resolver}

    Every caller that turns a function into a verified circuit — {!run}
    (batch and serve), {!probe_class} (the mapper's block library and the
    atlas builder), {!lookup} (the daemon's solver-free answers) — goes
    through one path:
    + the NPN plan: a single-output spec with n ≤ 4 is canonicalized by
      {!Npn} to its solve target (the class representative in the spec's
      output polarity) and the input transform that reaches it;
    + the atlas tier: an exact class circuit for the target, looked up by
      key in the cache's attached atlas (zero solver calls; a plan that was
      not canonicalized skips it, as the atlas stores class targets only);
    + otherwise one cache-hooked {!Mm_core.Synth.minimize} (or
      [minimize_r_only]) of the target;
    + the class circuit is pulled back through the inverse input transform
      and re-verified against the original spec on all rows — the only
      place a circuit is pulled back;
    + a spec still without a circuit (budget gone, crash, failed
      verification) gets the one verified {!fallback}.
    {!outcome} is the only derivation of a result's verdict.

    [run] solves each NPN class only once: specs in the same class (up to
    input permutation/negation and output polarity) share one solver job.
    The solve target carries the member's output polarity (a circuit cannot
    be output-negated structurally), so a class contributes at most two
    solver jobs — one per polarity present in the batch.

    {2 Failure model}

    The batch survives solver overruns, worker crashes and damaged caches;
    no spec is ever silently dropped. The degradation ladder:
    + a [deadline] distributes a global wall-clock budget over pending
      jobs ({!Deadline}); a job that starts after the budget is gone skips
      the solver entirely;
    + a crashed job (exception on a worker domain) is retried up to
      [retries] times with bounded exponential backoff — timeouts and
      UNSATs are deterministic answers and are never retried;
    + a spec that still has no circuit degrades to a verified non-optimal
      circuit when [fallback] allows (see {!fallback} for the rule), tagged
      with a non-[Exact] {!provenance} ([optimal = false]).
    A {!Fault} plan can inject crashes, delays, solver unknowns and cache
    corruption at every stage of this ladder so tests can prove the
    recovery behaviour deterministically. *)

module Spec = Mm_boolfun.Spec
module Tt = Mm_boolfun.Truth_table
module Synth = Mm_core.Synth

(** What to do with a spec whose exact solve did not produce a circuit. *)
type degrade =
  | No_fallback  (** report it unanswered (the pre-robustness behaviour) *)
  | Use_baseline  (** emit the QMC→NOR {!Mm_core.Baseline} network *)
  | Use_heuristic
      (** emit the {!Mm_core.Heuristic} Shannon-flow circuit, or the
          baseline when that circuit breaks the {!fallback} rule *)

type config = {
  rop_kind : Mm_core.Rop.kind;
  taps : Mm_core.Encode.taps;
  timeout_per_call : float;  (** SAT budget per instance, seconds *)
  max_rops : int option;
  max_steps : int option;
  domains : int;  (** worker domains; 1 = sequential *)
  canonicalize : bool;  (** NPN class sharing (on unless ablating) *)
  cache : Cache.t option;
  deadline : float option;  (** global wall-clock budget for the batch *)
  retries : int;  (** extra attempts for a crashed job (default 1) *)
  retry_backoff_s : float;
      (** base of the bounded exponential backoff between retry rounds *)
  fallback : degrade;
  fault : Fault.t option;  (** injection plan ([None] in production) *)
  incremental : bool;
      (** drive each job through the assumption-ladder path
          ({!Mm_core.Synth.minimize} [~incremental], default on); [false]
          selects the monolithic fresh-solver-per-point oracle *)
}

val config :
  ?rop_kind:Mm_core.Rop.kind ->
  ?taps:Mm_core.Encode.taps ->
  ?timeout_per_call:float ->
  ?max_rops:int ->
  ?max_steps:int ->
  ?domains:int ->
  ?canonicalize:bool ->
  ?cache:Cache.t ->
  ?deadline:float ->
  ?retries:int ->
  ?retry_backoff_s:float ->
  ?fallback:degrade ->
  ?fault:Fault.t ->
  ?incremental:bool ->
  unit ->
  config

(** Where a result's circuit came from. [Exact] is the SAT pipeline;
    [From_atlas] is an exact class circuit served by the cache's atlas tier
    with {e zero} solver calls (decanonicalized and re-verified on all rows
    like any other result). [Via_baseline]/[Via_heuristic] mean the exact
    pipeline failed for this spec and a fallback stands in — valid but
    making no optimality claim. *)
type provenance = Exact | From_atlas | Via_baseline | Via_heuristic

(** Typed failure taxonomy (replaces the former stringly errors). *)
type fail =
  | Crashed of { exn : string; backtrace : string }
      (** the job raised; text + backtrace from {!Pool} *)
  | Verify_failed of { row : int }
      (** decanonicalized circuit wrong on a truth-table row (engine bug) *)

type job_result = {
  spec : Spec.t;
  class_rep : Tt.t option;  (** NPN representative, when canonicalized *)
  shared : bool;  (** answered by another batch member's solver job *)
  report : Synth.report;  (** attempts in canonical (solve-target) space *)
  circuit : Mm_core.Circuit.t option;
      (** verified against [spec] on all rows; check [provenance] for how
          it was obtained *)
  provenance : provenance;
  optimal : bool;
      (** an exact circuit (solver or atlas) with both minimality proofs
          completed in budget *)
  error : fail option;
      (** the failure that occurred, kept for diagnosis even when a
          fallback circuit rescued the spec *)
}

type summary = {
  functions : int;
  classes : int;  (** distinct solver jobs after canonicalization *)
  sat : int;  (** specs answered by an [Exact] circuit *)
  atlas : int;
      (** specs answered by the atlas tier — exact, zero solver calls,
          never counted in [sat] *)
  unsat : int;  (** proven impossible within the search bounds *)
  timeout : int;  (** no exact answer (fallbacks are counted here too) *)
  fallbacks : int;  (** specs rescued by a degradation circuit *)
  retries_used : int;  (** job re-executions across all retry rounds *)
  deadline_hit : bool;  (** the global deadline expired during the run *)
  wall_s : float;
  solves_per_s : float;  (** functions answered per wall-clock second *)
  solver_calls : int;  (** SAT instances dispatched (memo/cache hits included) *)
  propagations : int;  (** summed unit propagations across all attempts *)
  restarts : int;  (** summed solver restarts across all attempts *)
  peak_learnts : int;  (** largest learnt-clause DB any solver reached *)
  props_per_s : float;  (** propagation throughput over the batch wall time *)
  cache : Cache.counters option;
}

(** Results are in input order; the cache (when present) has its shared
    counters reset at entry, is shared by all workers, and is flushed
    before returning (a no-op when no entry was added). The summary's
    [cache] counts the probes this run made ({!Cache.tally}), whatever
    other calls on the same cache overlap it. One call applies one
    fallback, per-call timeout and deadline to every spec, so a caller
    mixing requests with different budgets (the serve daemon) makes one
    call per distinct budget. *)
val run : config -> Spec.t array -> job_result array * summary

(** A result's verdict, derived here only: [Sat] an exact circuit (solver
    or atlas), [Fallback] a verified stand-in, [Failed] no circuit after a
    crash or a failed verification, [Timeout] no circuit because the budget
    ran out (no attempt at all, or one timed out), [Unsat] every dimension
    within the search caps refuted. The summary counts, the daemon's
    [verdict] and [mmsynth batch]'s table and exit status all read it. *)
type outcome = Sat | Unsat | Timeout | Fallback | Failed

val outcome : job_result -> outcome

(** [fallback ?r_only cfg spec] is the one verified stand-in circuit under
    [cfg.fallback]. The rule: the circuit realizes [spec] on all rows, keeps
    the requested taps ({!Mm_core.Circuit.final_taps_only} under
    [Final_only]; no legs at all when [r_only]) and uses [cfg.rop_kind]
    R-ops. Both generators emit NOR circuits, so any other R-op kind gets
    [None]. [Use_heuristic] falls through to the baseline when the
    heuristic circuit breaks the rule (and in R-only mode, where its legs
    always would). Under a [deadline] ({!run} passes its own) each
    heuristic block gets at most the time left, and once the deadline has
    passed [Use_heuristic] stands in with the baseline. *)
val fallback :
  ?r_only:bool ->
  ?deadline:Deadline.t ->
  config ->
  Spec.t ->
  (Mm_core.Circuit.t * provenance) option

(** {2 Library probe}

    The mapping layer ({!Mm_map}) and the atlas builder use the resolver one
    function at a time, in-process, with no pool, deadline or retries. *)

type probe = {
  probe_class_rep : Tt.t option;  (** NPN representative, when canonicalized *)
  probe_circuit : Mm_core.Circuit.t;  (** verified against the probed spec *)
  probe_report : Synth.report;  (** attempts in canonical space *)
  probe_exact : bool;
      (** from the solver or the atlas; [false] for a {!fallback} circuit,
          which only a [cfg.fallback] other than [No_fallback] yields *)
  probe_optimal : bool;  (** both minimality proofs completed in budget *)
}

(** [probe_class cfg spec] resolves one spec synchronously on the calling
    domain, through the same path as {!run}: the atlas tier first (in the
    requested mode; a hit answers with zero solver calls and an empty
    [probe_report]), else one minimization under [cfg.timeout_per_call]
    with [cfg.cache]'s hooks (TIMEOUT entries recorded under that budget,
    so stale-budget reuse rules apply), then pull-back, verification and
    the {!fallback}. [~r_only] selects {!Mm_core.Synth.minimize_r_only} —
    0-leg circuits whose inputs are plain literals, the form the stitcher
    can re-source onto intermediate signals. [None] when no verified
    circuit results. *)
val probe_class : ?r_only:bool -> config -> Spec.t -> probe option

(** [lookup cfg spec] is {!run} on one spec with the solver left out: the
    same NPN plan and atlas tier, else the same deadline claim and a
    minimization answered from [cfg.cache]'s overlay alone — it stops at
    the first ladder point the overlay lacks, before any solver is built —
    then the same pull-back, re-verification and summary. It answers only
    results whose {!outcome} is [Sat] or [Unsat], and these and their
    summary equal [run]'s; [None] (ask {!run}) for anything else, without
    a [cache], under a [fault] plan, so that every injection point stays
    on [run]'s path, and for a spec of more than 4 inputs, whose
    minimization would first compute the baseline's R-op bound (seconds
    and up, growing steeply with the arity) only for {!run} to compute it
    again. It never builds a solver, never applies the fallback and never
    writes the cache. Like [run] it resets the cache's shared counters at
    entry, so after a call they hold that call's probes; its summary, like
    [run]'s, counts only its own probes, whatever calls overlap it. *)
val lookup : config -> Spec.t -> (job_result * summary) option

(** The all-zero summary — identity of {!add_summary}. *)
val empty_summary : summary

(** Pointwise accumulation for long-running consumers (the serve daemon
    keeps one cumulative summary across all its batches): counters add,
    [deadline_hit] ORs, [solves_per_s] is recomputed from the combined
    totals, and [cache] adds hit/miss/stale with the latest entry count
    (counters are per-run, entries are a point-in-time size). *)
val add_summary : summary -> summary -> summary

(** The shared stats schema ([mmsynth-stats-v5]): one JSON object with the
    summary counters (including [atlas] — new in v3), the solver-internals
    counters ([propagations], [restarts], [peak_learnts], [props_per_s];
    v5 dropped v4's clause-sharing counter) and the cache counters including
    [atlas_hits] (or [null]). The CLI's [batch --json], the serve daemon's
    [stats] endpoint and the bench writers all emit this same shape. *)
val stats_to_json : summary -> Mm_report.Json.t

(** All [2^2^n] single-output functions of [arity] [n <= 4], in
    truth-table-integer order — the sweep universe of Tables III/IV. *)
val all_functions : arity:int -> Spec.t array

val pp_summary : Format.formatter -> summary -> unit
