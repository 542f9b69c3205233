(** Two-tier persistent result store for synthesis instances.

    The {e overlay} tier caches the outcome of one [Synth.solve_instance]
    call — SAT with the decoded circuit, UNSAT (an optimality certificate
    that stays valid forever), or TIMEOUT together with the budget it ran
    under. Keys are fingerprint strings built by {!key} from the encode
    configuration and the (canonical) specification, so budget sweeps and
    repeated batch runs skip every instance already answered.

    The {e atlas} tier sits in front of the overlay: an immutable,
    read-only library of whole NPN classes (see [Mm_atlas]) attached with
    {!set_atlas}. The engine probes it with {!find_class} before
    dispatching any solver job; a hit answers the whole minimization in
    microseconds with zero solver calls and is counted in
    [counters.atlas_hits]. The hook is function-typed so this module never
    depends on the atlas implementation.

    Reuse rules implemented by {!find}: SAT and UNSAT entries are definitive
    and hit regardless of the requested budget; a TIMEOUT entry hits only
    when it was produced under a budget at least as large as the one now
    requested — otherwise it is counted {e stale} and re-solved.

    {2 Integrity}

    The overlay is one file at [path] in the {!Record_file} format: the
    magic string and {!format_version} in a raw header, then one
    checksummed record (MD5 over the marshalled payload) per entry. Damage
    is contained, never trusted and never silently discarded:
    - a record whose checksum fails (flipped bytes) is skipped; reading
      continues at the next record;
    - a torn record (truncation, garbage tail) ends the read; the valid
      prefix already parsed is kept — the load reports {!Salvaged};
    - a wrong version or unrecognizable header reports {!Invalid_version}
      / {!Corrupt} and the cache starts empty;
    - in every damage case the original file is {e quarantined}: renamed to
      [<path>.corrupt] (numeric suffixes if taken) so the bytes survive for
      post-mortem. The next {!flush} rewrites [<path>] from the salvaged
      entries.
    A path that cannot be read as a file (a directory, no permission) is
    {!Unreadable}: the cache starts empty and nothing is moved.
    Truncation exactly at a record boundary is indistinguishable from a
    shorter valid file and loads as {!Loaded}.

    Writes go to a unique temporary file followed by an atomic [rename], so
    concurrent writers (e.g. pool workers flushing) can never leave a torn
    file and a reader loading during a flush sees either the old or the new
    complete file — last writer wins. All operations are mutex-protected
    and safe to share across domains. *)

type t

(** Outcome of reading [path] at {!create} time. [quarantined] is the
    destination the damaged file was moved to ([None] if the rename
    failed or there was no path). *)
type load =
  | Fresh  (** no file at [path], or no path given *)
  | Loaded of int  (** entries read, all records intact *)
  | Invalid_version of { version : int; quarantined : string option }
      (** on-disk version; cache starts empty *)
  | Corrupt of { quarantined : string option }
      (** unrecognizable header; cache starts empty *)
  | Salvaged of { kept : int; dropped : int; quarantined : string option }
      (** damaged records: [kept] entries survive, at least [dropped]
          records were lost *)
  | Unreadable of string
      (** the path exists but is no readable file (e.g. a directory): the
          reason; cache starts empty, nothing is quarantined *)

type counters = {
  hits : int;
  misses : int;
  stale : int;
  atlas_hits : int;  (** class queries answered by the atlas tier *)
  entries : int;
}

(** [create ?path ()] — with a [path], existing entries are loaded (and
    damaged files quarantined) and {!flush} persists there. Without a path,
    the cache is memory-only. Never raises: every file problem is a
    {!load} value. *)
val create : ?path:string -> unit -> t

val load_result : t -> load
val path : t -> string option

val pp_load : Format.formatter -> load -> unit

(** Fingerprint for one synthesis instance. Spec names are excluded — only
    arity and output tables matter. *)
val key : Mm_core.Encode.config -> Mm_boolfun.Spec.t -> string

(** A caller's own probe counts, kept apart from the cache's shared
    counters: {!find} and {!find_class} count a probe in both. A batch run
    and a daemon's lookup that overlap on one cache each read their own
    probes from their tally, which no other caller resets. *)
type tally

val tally : unit -> tally

(** [find ?tally t ~timeout key] probes the overlay, counting a hit, miss
    or stale probe in the shared counters and in [tally]. *)
val find :
  ?tally:tally -> t -> timeout:float -> string -> Mm_core.Synth.attempt option

(** [add t ~timeout key attempt] records in the overlay (replacing any
    previous entry). *)
val add : t -> timeout:float -> string -> Mm_core.Synth.attempt -> unit

(** Rewrite [path] from the whole overlay (atomic) when an entry was added
    since the last write, or the load moved a damaged file aside (so the
    salvaged entries are written back); a no-op otherwise, and when
    memory-only. Raises [Sys_error] when [path] cannot be written. *)
val flush : t -> unit

(** The shared counters: every probe since the last {!reset_counters}, by
    whichever caller made it. *)
val counters : t -> counters

val reset_counters : t -> unit

(** A tally's counts, with the cache's current [entries]. *)
val tally_counters : t -> tally -> counters

val format_version : int

(** {2 The atlas tier}

    One whole-minimization query: a (single-output) spec in either solve
    mode, with the engine's encode parameters and search caps. The engine
    passes its canonical solve target (the NPN class representative in the
    member's output polarity); the hook answers for exactly that target,
    and the engine pulls the circuit back to the member and verifies it. *)

type class_query = {
  q_spec : Mm_boolfun.Spec.t;
  q_mode : [ `Mixed | `R_only ];
  q_rop_kind : Mm_core.Rop.kind;
  q_taps : Mm_core.Encode.taps;
  q_max_rops : int option;
  q_max_steps : int option;
}

(** The stored circuit for the queried target. [a_rops_exact] marks the
    R-op count proven minimal (UNSAT certificate below it), [a_steps_exact]
    the same for steps; [a_effort] is the atlas build tier that produced
    it. *)
type class_answer = {
  a_circuit : Mm_core.Circuit.t;
  a_rops : int;
  a_steps : int;
  a_legs : int;
  a_rops_exact : bool;
  a_steps_exact : bool;
  a_effort : int;
}

(** Attach an atlas lookup (replacing any previous one). *)
val set_atlas : t -> (class_query -> class_answer option) -> unit

(** Probe the atlas tier; [None] without an attached atlas (no counter
    moves) or on an atlas miss. A hit bumps [atlas_hits], in the shared
    counters and in [tally]. *)
val find_class : ?tally:tally -> t -> class_query -> class_answer option

(** {2 Offline inspection ([mmsynth cache info]/[cache gc])}

    Unlike {!create}, these never move or modify files — safe to run
    against a live daemon's cache. *)

(** What a read-only parse of [path] found. [status] reuses {!load} with
    [quarantined = None] (nothing is quarantined by inspection). *)
type info = {
  size_bytes : int option;  (** [None] when the file does not exist *)
  version : int option;  (** on-disk format version, [None] if unreadable *)
  status : load;
  entries : int;  (** records that parse and pass their checksum *)
  corrupt_siblings : string list;
      (** existing [<path>.corrupt{,.N}] quarantine files *)
}

val inspect : string -> info

(** The [<path>.corrupt], [<path>.corrupt.1], ... files that exist,
    in quarantine order. *)
val quarantined_siblings : string -> string list

(**/**)

(** Test hook: persist with an arbitrary format version. *)
val save_with_version : t -> int -> unit
