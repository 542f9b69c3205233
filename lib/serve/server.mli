(** The resident synthesis daemon.

    One [mmsynth serve] process holds the expensive state warm — the open
    persistent {!Mm_engine.Cache}, the NPN canonicalization tables, the
    resident OCaml heap — and answers {!Wire} requests over a Unix-domain
    socket (and optionally a loopback TCP port). Compared to a cold
    [mmsynth batch] run, a warm request skips process startup, cache load
    and NPN table construction entirely, and almost always answers straight
    from the cache.

    {2 Architecture}

    The transport is shared by every daemon in this repository — the
    engine daemon ([mmsynth serve]) and the cluster router
    ([mmsynth cluster], whose verbs are [Mm_cluster.Router.handlers]):

    - One {e accept} thread per listener hands connections to per-connection
      {e reader} threads. A reader decodes each frame once and serves it
      with the frame's {e answer}, a continuation any thread may call, at
      once or later. It answers [ping], [health], [stats], [shutdown] and a
      frame that does not decode ([bad_request]) in place, and hands every
      [synth] to the daemon's {!handlers}. Replies are matched by frame id,
      not arrival order, so a pipelined {!Client} keeps several requests in
      flight on one connection, and one slow request never stalls the
      others. A frame with an injected [Fault.Delay] is served in a thread
      of its own after its sleep.
    - Every reply takes one path: it is written at once while the socket
      polls writable and no earlier reply waits; otherwise it joins the
      connection's backlog, which one writer thread drains. So no thread
      that answers — the reader, the dispatcher, a router thread — blocks
      in a write, and a client may write many frames before it reads a
      reply. Only a frame's first answer is written. A failed write drops
      the connection, as a frame cut short leaves no boundary to resume
      from. So does a backlog past 8 MiB of replies (4,000 pipelined
      3-input answers back up about 2 MB): a client that writes and never
      reads cannot grow the daemon's memory without bound. The drop is
      counted once in [connections.dropped], and the connection's queued
      replies are discarded.
    - Each frame counts as in flight, for the drain, from the moment it is
      read until its reply is written; a reader closes its connection only
      once every frame it read is answered. An exception while serving a
      frame answers it [internal]; the connection stays open.

    The engine daemon's [synth] takes three steps on the reader, and a
    dispatcher answers what it queues:

    - A request whose deadline is already ≤ 0 is refused
      [deadline_exceeded].
    - {!Mm_engine.Engine.lookup} under the request's effective parameters
      (below): an atlas hit, or a minimization of at most 4 inputs whose
      every ladder point the warm cache's overlay already holds, is
      answered at once with no queue wait, the same reply the dispatcher
      would give (counted [inline] in [stats]). Under an engine fault plan
      [Engine.lookup] answers nothing, so every synthesis runs on the
      dispatcher, through every fault stage.
    - Every other request passes {e admission control}: a bounded pending
      queue of at most [max_pending] jobs. A full queue sheds the request
      with a typed [overloaded] reply (plus [retry_after_s]) instead of
      queueing without bound. A queued job holds no thread, only its
      answer.
    - A single {e dispatcher} thread drains the queue in micro-batches of up
      to [max_batch] jobs and answers each job when its group ends. Each
      request keeps its own budget: the jobs of a micro-batch that share
      their effective fallback, per-call timeout (the request's, capped at
      [engine]'s) and requested deadline (the request's, else
      [default_deadline]) go to one {!Mm_engine.Engine.run} call, so they
      share one Domain pool spin-up and NPN-deduplicate against each other
      through the shared warm cache; default-parameter requests all share
      one call.
    - Each job's {e deadline} (request [params.deadline], else
      [default_deadline]) covers queue wait plus synthesis: a job whose
      deadline passed while queued is answered [deadline_exceeded] without
      touching the solver, and the time left to its group (up to the
      soonest expiry among its members) is enforced by the engine's
      {!Mm_engine.Deadline} manager.

    {2 Drain semantics}

    [SIGTERM], [SIGINT] (via {!run}) or a [shutdown] request triggers a
    {e graceful drain}: every frame already read is answered (queued and
    in-flight jobs finish and their replies are delivered); new synthesis
    requests are refused with [unavailable]; then connected clients get
    [drain_grace] seconds to disconnect before remaining connections are
    closed; the cache is flushed and the socket file removed. A clean
    drain exits 0.

    {2 Fault injection}

    [fault] applies {!Mm_engine.Fault} rules at the [Conn] stage, keyed
    ["conn<N>/req<M>"] per request and ["accept/conn<N>"] at accept time:
    [Crash] drops the connection without a reply (the client sees a reset;
    the daemon must not crash), [Delay] slows that one response (never the
    rest of the connection), [Refuse] closes the connection at accept
    before a frame is read (a partitioned shard), and [Kill] makes the
    whole daemon {!die} abruptly (a crashed shard the cluster router must
    fail over). Worker/solver faults are injected through the engine
    config as in batch mode. *)

module Engine = Mm_engine.Engine
module Fault = Mm_engine.Fault
module Json = Mm_report.Json
module Spec = Mm_boolfun.Spec

type config = {
  socket_path : string;
  tcp_port : int option;  (** also listen on 127.0.0.1:port *)
  engine : Engine.config;
      (** template for every batch; its [cache] is the daemon's warm cache *)
  max_pending : int;  (** admission bound on the queue (≥ 1) *)
  max_batch : int;  (** jobs per engine micro-batch (≥ 1) *)
  default_deadline : float option;
      (** per-request deadline when the request carries none *)
  drain_grace : float;  (** seconds to let clients disconnect on drain *)
  fault : Fault.t option;  (** [Conn]-stage injection plan *)
  log : (string -> unit) option;
  shard_id : string option;
      (** identity reported in [stats]/[health] snapshots (default: the
          socket path) so a router can attribute per-shard metrics *)
}

val config :
  ?tcp_port:int ->
  ?engine:Engine.config ->
  ?max_pending:int ->
  ?max_batch:int ->
  ?default_deadline:float ->
  ?drain_grace:float ->
  ?fault:Fault.t ->
  ?log:(string -> unit) ->
  ?shard_id:string ->
  socket_path:string ->
  unit ->
  config

(** The verbs a daemon answers beyond [ping] and [shutdown]. All three run
    on the connection's reader and must not block: while one runs, that
    connection's next frame is not read. [synth spec params answer]
    answers through [answer], at once or later and from any thread; a
    verb that has to wait starts a thread of its own. Only the first
    answer is written; one that never comes leaves the frame in flight,
    holding up the drain and the connection's close. [synth] is not
    called while the daemon drains (the transport refuses with
    [unavailable]). [health] returns fields added after the transport's
    [status], [shard], [protocol_version] and [uptime_s]. *)
type handlers = {
  synth : Spec.t -> Wire.synth_params -> (Wire.reply -> unit) -> unit;
  stats : unit -> Json.t;
  health : unit -> (string * Json.t) list;
}

type t

(** Make [path] free for a new Unix-socket listener: a stale socket file
    (no listener behind it) is removed; a live one (something accepts
    connections) is an [Error], and the file is left in place. *)
val free_socket_path : string -> (unit, string) result

(** Bind and spawn the accept threads. Without [handlers] the daemon is
    the engine daemon: it warms the NPN tables and starts the dispatcher.
    With [handlers] those answer instead, and the config's engine fields
    ([engine], [max_pending], [max_batch], [default_deadline]) are unused.
    [Error] when the socket path is already served by a live daemon or
    cannot be bound. A stale socket file (no listener behind it) is
    replaced. *)
val start : ?handlers:handlers -> config -> (t, string) result

(** Begin a graceful drain (idempotent, non-blocking). *)
val request_drain : t -> unit

(** Abrupt death, no drain: queued and running jobs are answered
    [unavailable], listeners close immediately.
    Deterministic stand-in for [kill -9] in tests and the storm bench;
    also triggered by an injected [Fault.Kill]. Idempotent. Follow with
    {!wait} to join the (now exiting) threads. *)
val die : t -> unit

val draining : t -> bool
val stopped : t -> bool

(** Block until a drain is requested (or the daemon died), carry the drain
    out, then join every thread, flush the cache and remove the socket
    file. *)
val wait : t -> unit

(** {!request_drain} + {!wait}. *)
val stop : t -> unit

(** The [stats] endpoint's JSON, for in-process consumers. *)
val stats_json : t -> Json.t

(** [start] + install SIGTERM/SIGINT→drain handlers + [wait]: the body of
    [mmsynth serve] and [mmsynth cluster]. Returns when the daemon has
    drained. *)
val run : ?handlers:handlers -> config -> (unit, string) result
