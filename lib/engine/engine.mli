(** Batch synthesis driver: canonicalize → cache probe → schedule misses on
    the domain pool → decanonicalize → verify → persist.

    [run] minimizes every spec of a batch through the paper's outer loop
    ({!Mm_core.Synth.minimize}), but solves each NPN class only once:
    single-output specs with n ≤ 4 are canonicalized by {!Npn}, specs in the
    same class (up to input permutation/negation and output polarity) share
    one solver job, and each solver call inside a job is additionally
    memoized through an optional persistent {!Cache}. Class solutions are
    mapped back to concrete circuits with {!Npn.apply_circuit} and
    re-verified against the original specification on all rows before being
    reported.

    Output polarity note: the solve target of a class is the canonical
    representative with the member's output polarity applied (a circuit
    cannot be output-negated structurally), so a class contributes at most
    two solver jobs — one per polarity present in the batch.

    {2 Failure model}

    The batch survives solver overruns, worker crashes and damaged caches;
    no spec is ever silently dropped. The degradation ladder:
    + a [deadline] distributes a global wall-clock budget over pending
      jobs ({!Deadline}); a job that starts after the budget is gone skips
      the solver entirely;
    + a crashed job (exception on a worker domain) is retried up to
      [retries] times with bounded exponential backoff — timeouts and
      UNSATs are deterministic answers and are never retried;
    + a spec that still has no circuit (budget exhausted, crash survived
      all retries, or failed re-verification) degrades to a verified
      heuristic circuit when [fallback] allows: the QMC→NOR
      {!Mm_core.Baseline} network or the Shannon-decomposition
      {!Mm_core.Heuristic} flow, re-verified on all truth-table rows and
      tagged with a non-[Exact] {!provenance} ([optimal = false]).
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
  | Use_heuristic  (** emit the {!Mm_core.Heuristic} Shannon-flow circuit *)

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
      (** [Exact] circuit with both minimality proofs completed in budget *)
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

(** Results are in input order; the cache (when present) has its counters
    reset at entry, is shared by all workers, and is flushed before
    returning. *)
val run : config -> Spec.t array -> job_result array * summary

(** {2 Library probe}

    The mapping layer ({!Mm_map}) treats the engine as a cost oracle: one
    cut function at a time, in-process, no pool/deadline/fault machinery —
    just canonicalize → cache hooks → {!Mm_core.Synth.minimize} →
    decanonicalize → verify. *)

type probe = {
  probe_class_rep : Tt.t option;  (** NPN representative, when canonicalized *)
  probe_circuit : Mm_core.Circuit.t;  (** verified against the probed spec *)
  probe_report : Synth.report;  (** attempts in canonical space *)
  probe_exact : bool;  (** from the SAT pipeline, never a fallback *)
  probe_optimal : bool;  (** both minimality proofs completed in budget *)
}

(** [probe_class cfg spec] synthesizes one (single-output, arity ≤ 4) spec
    through the canonicalize/cache/minimize path of {!run}, synchronously on
    the calling domain. The cache's atlas tier is probed first (in the
    requested mode): an exact atlas record answers with zero solver calls
    and an empty [probe_report]. [cfg.cache]'s [?lookup]/[?store] hooks are wired
    exactly as in batch jobs (TIMEOUT entries recorded under
    [cfg.timeout_per_call], so stale-budget reuse rules apply). [~r_only]
    selects {!Mm_core.Synth.minimize_r_only} — 0-leg circuits whose inputs
    are plain literals, the form the stitcher can re-source onto
    intermediate signals. [None] when the budget expires with no circuit or
    the decanonicalized circuit fails row verification. *)
val probe_class : ?r_only:bool -> config -> Spec.t -> probe option

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
