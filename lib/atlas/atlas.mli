(** The NPN block atlas: every ≤4-input synthesis answer, precomputed.

    The paper's central artifact is the complete set of SAT-optimal
    implementations of the 222 4-input NPN classes (2, 4 and 14 classes
    for n = 1..3). This module enumerates that universe {e offline} at
    escalating effort tiers, persists it as a compact, versioned,
    checksummed, read-only artifact, and serves whole minimization
    queries from it in microseconds with {e zero} solver calls — the
    engine attaches a loaded atlas as the immutable front tier of its
    {!Mm_engine.Cache} (see {!attach}).

    {2 Universe}

    A class contributes up to two stored {e targets}: the engine solves a
    member [f] as [apply (input_only t) f] where [t = snd (canon f)] —
    that is the class representative in the member's output polarity, so
    the targets are exactly [rep] and [lnot rep] — 484 targets for
    n ≤ 4 (2·(2+4+14+222)), 968 records across both modes. Records are keyed by (mode, R-op kind, tap discipline,
    arity, target); the tap discipline is normalized to [Final_only] for
    R-only records, which have no V-legs at all.

    {2 Effort tiers}

    - {e 1} — quick heuristic: the engine's verified
      {!Mm_engine.Engine.fallback} — the Shannon-flow {!Mm_core.Heuristic}
      (mixed, or the baseline when the heuristic circuit breaks the
      goal's taps) or QMC→NOR {!Mm_core.Baseline} (R-only) circuit; no
      optimality claim.
    - {e 2} — exact: the goal resolved by
      {!Mm_engine.Engine.probe_class} ({!Mm_core.Synth.minimize} on the
      incremental ladder under the build budget); minimality flags as
      proven in budget. A goal whose budget runs out degrades to a tier-1
      record.
    - {e 3} — exact with certificates: 4× budget, keeping the
      failed-assumption UNSAT-ladder certificates ([N_R - 1] etc.) as
      provenance metadata.

    A record stores the tier that produced it plus the proof flags it
    actually earned, so a tier-3 build whose proofs timed out is still
    honest. Only records with a proven-minimal R-op count are served to
    the engine.

    {2 File format}

    The {!Mm_engine.Record_file} format, shared with the result cache:
    magic ["MMSYNTH-ATLAS"] and {!format_version} in a raw header, then one
    [MD5 ‖ length ‖ payload] record per entry, each payload checked against
    its digest before it is unmarshalled. Flipped payload bytes fail the
    digest; a truncation or a garbage length tears the framing. {!load} is
    {e strict}: any damage is a typed error and the caller degrades to
    overlay-only operation; {!info} is tolerant and summarizes what is
    readable. Builds are {e resumable}: the builder re-reads the valid
    prefix of an interrupted file, skips every goal already satisfied at
    the requested effort, and rewrites the file atomically (temporary file,
    then rename) after every chunk. *)

module Tt = Mm_boolfun.Truth_table
module Spec = Mm_boolfun.Spec
module Circuit = Mm_core.Circuit
module Rop = Mm_core.Rop
module Encode = Mm_core.Encode
module Cache = Mm_engine.Cache

val magic : string
val format_version : int

type mode = Mixed | R_only

val mode_to_string : mode -> string

(** One failed-assumption optimality certificate: the solver refuted
    these dimensions in [c_time_s] seconds after [c_conflicts]
    conflicts. *)
type cert = {
  c_legs : int;
  c_steps : int;
  c_rops : int;
  c_conflicts : int;
  c_time_s : float;
}

type record = {
  mode : mode;
  rop_kind : Rop.kind;
  taps : Encode.taps;  (** normalized to [Final_only] when [R_only] *)
  arity : int;
  target : int;  (** {!Tt.to_int} of the stored solve target *)
  circuit : Circuit.t;  (** realizes the target; re-verified by {!find} *)
  rops : int;
  steps : int;  (** V-op steps per leg; 0 for [R_only] *)
  legs : int;
  effort : int;  (** tier that produced this record (1..3) *)
  rops_exact : bool;  (** R-op count proven minimal in budget *)
  steps_exact : bool;  (** step count proven minimal in budget *)
  certificates : cert list;  (** UNSAT-ladder provenance, newest last *)
  wall_s : float;  (** build wall-clock spent on this record *)
}

type t

(** Typed damage taxonomy for {!load}/{!info}. *)
type error =
  | Missing  (** no file at the path *)
  | Unreadable of string
      (** the path is no readable file (e.g. a directory): the reason *)
  | Bad_header
      (** not an atlas file, or one written before {!format_version} 2 *)
  | Bad_version of int  (** wrong {!format_version} *)
  | Damaged of { kept : int; dropped : int; torn : bool }
      (** checksum-failed records ([dropped]) or a torn tail ([torn]);
          [kept] records were still readable *)

val pp_error : Format.formatter -> error -> unit

(** Strict read-only open: [Error] on any damage (serve/map/batch then
    run overlay-only — a partially trusted atlas is never served). *)
val load : string -> (t, error) result

val path : t -> string
val size : t -> int
val records : t -> record list

(** [find t ~mode ~rop_kind ~taps f] answers a whole minimization for the
    single-output function [f] (arity ≤ 4): canonicalize, look the target
    up, pull the stored class circuit back through the inverse input
    transform, and re-verify it against [f] on all rows. The returned
    circuit realizes [f]; the record carries the provenance. [None] on a
    missing target or (never expected) failed re-verification. *)
val find :
  t ->
  mode:mode ->
  rop_kind:Rop.kind ->
  taps:Encode.taps ->
  Tt.t ->
  (Circuit.t * record) option

(** Install [t] as the atlas tier of a cache: every {!Cache.find_class}
    probe looks its (already canonical) target up by key, with the query's
    search caps enforced ([q_max_rops]/[q_max_steps] — a minimal count above
    a cap is a miss, the engine then proves its own capped verdict). Only
    records with [rops_exact] whose circuit realizes the target are
    answered, so a stale or foreign record is a miss. The stored circuit is
    returned as is: the engine pulls it back to the member and verifies it
    there, so a served hit is canonicalized once. *)
val attach : t -> Cache.t -> unit

(** {2 Building} *)

(** One enumeration goal: solve [g_target] in [g_mode]. *)
type goal = {
  g_mode : mode;
  g_rop_kind : Rop.kind;
  g_taps : Encode.taps;
  g_target : Tt.t;
}

(** The full goal universe: both polarity targets of every NPN class of
    arity 1..[max_n], in [modes] (default both), plus both polarity
    targets of the classes of every function in [include_tts] (any arity
    ≤ 4 — e.g. the bench workload, so a small atlas can cover chosen
    4-input classes without enumerating all 222). Deduplicated. *)
val universe :
  ?modes:mode list ->
  ?rop_kind:Rop.kind ->
  ?taps:Encode.taps ->
  ?include_tts:Tt.t list ->
  max_n:int ->
  unit ->
  goal list

type build_stats = {
  total : int;  (** goals requested *)
  built : int;  (** records solved in this run *)
  reused : int;  (** goals already satisfied by the resumed file *)
  failed : int;  (** goals with no circuit at any tier *)
  wall_s : float;
}

(** [build ~path goals] enumerates [goals] on [domains] workers
    ({!Mm_engine.Pool}) in chunks, flushing the artifact atomically after
    every chunk — an interrupted build loses at most one chunk and
    [~resume:true] (the default) continues from the last flushed record,
    also upgrading records of a lower-effort earlier build. [effort] is
    the tier (1..3, default 2); [timeout_per_call] the tier-2 SAT budget
    (tier 3 runs 4×). [progress] receives one human line per chunk. *)
val build :
  ?effort:int ->
  ?domains:int ->
  ?timeout_per_call:float ->
  ?resume:bool ->
  ?progress:(string -> unit) ->
  path:string ->
  goal list ->
  (build_stats, error) result

(** {2 Offline inspection} *)

type file_info = {
  i_version : int;
  i_records : int;
  i_bytes : int;
  i_by_arity : (int * int) list;  (** arity → records, ascending *)
  i_by_mode : (mode * int) list;
  i_by_effort : (int * int) list;  (** effort tier → records *)
  i_rops_exact : int;
  i_both_exact : int;
  i_certificates : int;  (** total stored UNSAT certificates *)
  i_damage : (int * bool) option;
      (** [(dropped, torn)] when the file is damaged — {!info} is
          tolerant and still summarizes the readable records *)
}

val info : string -> (file_info, error) result

(** Deep re-verification for [mmsynth atlas verify]: header, checksums
    and framing, then every record re-simulated — the circuit must
    realize its stored target on all rows, the stored metrics must match
    the circuit, R-only records must be legless. [Ok n] verified [n]
    records; [Error issues] lists every problem found (the CLI exits
    nonzero). *)
type issue =
  | File_error of error  (** unreadable header, or damaged records *)
  | Wrong_rows of { key : string; row : int }
  | Metric_mismatch of { key : string; field : string; stored : int; actual : int }
  | Malformed of { key : string; what : string }

val pp_issue : Format.formatter -> issue -> unit
val verify : string -> (int, issue list) result
