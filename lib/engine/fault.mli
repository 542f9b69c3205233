(** Deterministic fault injection for the batch pipeline.

    Robustness claims ("a crashing worker never loses the batch", "a corrupt
    cache is quarantined, not trusted") are only worth something when a test
    can {e make} those faults happen on demand. This module injects faults
    at named pipeline stages, decided by a pure hash of
    [(seed, stage, rule, key)] — the same plan applied to the same batch
    fires at exactly the same points, run after run, regardless of how many
    domains execute the jobs or in which order they finish. The hashing
    follows the {!Mm_device.Rng} splittable-stream discipline used by every
    other stochastic component of this repository: explicit seeds, no
    global state.

    Callers thread a plan ([t option], [None] = production, nothing ever
    fires) to the hook points; tests build plans with {!rule} and assert on
    the recovery behaviour. *)

(** Named pipeline stages where a fault can strike. *)
type stage =
  | Worker  (** job start on a pool domain *)
  | Solver  (** the SAT minimization call *)
  | Cache_read  (** cache probe inside the solve loop *)
  | Cache_write  (** persisting the cache to disk *)
  | Verify  (** decanonicalization + truth-table re-verification *)
  | Conn
      (** serve-layer connection handling: [Crash] drops the connection
          without a reply, [Delay] slows the response *)

type action =
  | Crash  (** raise {!Injected} *)
  | Delay of float  (** sleep this many seconds, then proceed *)
  | Unknown_result
      (** force the solver to report an (injected) [Unknown]/timeout *)
  | Kill
      (** serve layer, [Conn] stage: the whole daemon dies abruptly — no
          drain, no replies to queued work (simulated shard crash) *)
  | Refuse
      (** serve layer, [Conn] stage at accept time: the connection is
          closed before a single frame is read (simulated network
          partition / refused shard) *)

type rule

type t

(** Raised by an injected {!Crash}; the payload names the stage and key. *)
exception Injected of string

(** [rule ?only stage rate action] fires [action] at [stage] with
    probability [rate] (clamped to [0,1]), decided per [key]. [only]
    restricts the rule to keys containing that substring — e.g.
    [~only:"job3/"] hits only job 3, [~only:"/try0"] hits only first
    attempts (retries then succeed deterministically). *)
val rule : ?only:string -> stage -> float -> action -> rule

val create : seed:int -> rule list -> t

(** [decide t ~stage ~key] — first matching rule that fires, if any.
    Pure in [(t, stage, key)]. *)
val decide : t -> stage:stage -> key:string -> action option

(** [guard plan ~stage ~key f] runs [f ()], first applying any injected
    fault: {!Crash} raises {!Injected}, {!Delay} sleeps. {!Unknown_result}
    is not interpretable here — query it with {!forced_unknown} at the
    call site that owns the solver verdict. *)
val guard : t option -> stage:stage -> key:string -> (unit -> 'a) -> 'a

(** Whether an {!Unknown_result} fault fires at this point. *)
val forced_unknown : t option -> stage:stage -> key:string -> bool

val stage_tag : stage -> string

(** [corrupt_file ?seed ?offset path] deterministically flips a handful of
    bytes of [path] at positions at or after [offset] (default 64 — past a
    cache file's magic + version header, into the payload region). Used by
    tests and the [Cache_write] hook to fabricate torn/damaged files. *)
val corrupt_file : ?seed:int -> ?offset:int -> string -> unit

(** Parse a CLI plan: comma-separated [stage:rate] pairs, e.g.
    ["worker:0.3,solver:0.1"]. Stages: [worker] (crash), [solver]
    (unknown), [cache-read] (crash), [cache-write] (corrupt-on-flush,
    interpreted by the engine), [verify] (crash), [conn]
    (connection drop, interpreted by the serve layer), [kill] (abrupt
    daemon death at the [Conn] stage — a shard crash the cluster router
    must fail over) and [partition] (connections refused at accept — a
    shard the router sees as unreachable). *)
val parse_spec : string -> (rule list, string) result
