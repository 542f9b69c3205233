(** The cluster front door: route each request to the shard that owns its
    NPN class, fail over to replicas when that shard sheds, drains or
    dies, and ride out load spikes with budgeted retries.

    {2 Request path}

    A request's key ({!Ring.key_of_spec}) fixes its failover order on the
    consistent hash ring. The router walks that order in rounds:

    - Shards whose {!Breaker} is [Open] are skipped — unless {e every}
      shard is quarantined, in which case the router degrades gracefully
      and routes through the quarantine anyway (a live request is the
      cheapest health probe there is).
    - A transport failure or a typed [unavailable] (draining shard) feeds
      the shard's breaker and falls over to the next replica.
    - A typed [overloaded] shed is {e backpressure, not death}: it never
      trips the breaker. The router tries the next replica, and when a
      whole round sheds, sleeps a jittered exponential backoff seeded by
      the largest [retry_after_s] hint ({!Mm_serve.Client.backoff}), then
      goes again — within [retry_budget_s] seconds and four rounds total.
    - [bad_request], [deadline_exceeded] and [internal] are deterministic:
      the same request would fail on every replica, so they are returned
      to the caller immediately.

    Each shard is reached over one pipelined {!Mm_serve.Client.t},
    dialled on first use (concurrent first requests share the dial) and
    re-dialled once when a request finds it dead. A shard reply waits at
    most 30 s.

    Every {!outcome} is tagged with the answering shard, whether failover
    occurred (answered by a non-primary), and the attempt count — the
    storm bench and the router daemon ({!handlers}) surface these.

    A background prober pings every shard each [probe_interval_s],
    feeding the breakers so a quarantined shard is re-admitted (via
    half-open probes) without waiting for user traffic. *)

module Json = Mm_report.Json
module Spec = Mm_boolfun.Spec
module Wire = Mm_serve.Wire
module Client = Mm_serve.Client

type shard_info = { id : string; addr : Client.addr }

type config = {
  replicas : int;  (** distinct shards tried per round (≥ 1) *)
  retry_budget_s : float;  (** total wall budget across rounds *)
  breaker : Breaker.config;
  probe_interval_s : float option;  (** health-probe period; [None] off *)
  seed : int;  (** jitter determinism *)
  log : (string -> unit) option;
}

(** Defaults: 2 replicas, 2 s budget, default breaker, 0.5 s probes,
    seed 0. *)
val config :
  ?replicas:int ->
  ?retry_budget_s:float ->
  ?breaker:Breaker.config ->
  ?probe_interval_s:float option ->
  ?seed:int ->
  ?log:(string -> unit) ->
  unit ->
  config

type t

(** [create cfg shards] — shard connections open lazily; the prober (if
    enabled) starts immediately.
    @raise Invalid_argument on an empty shard list. *)
val create : config -> shard_info list -> t

(** Stop the prober and close every shard connection. *)
val close : t -> unit

type outcome = {
  reply : Wire.reply;
  shard : string;  (** answering shard id ([""] when no shard answered) *)
  failover : bool;  (** answered by a non-primary shard *)
  attempts : int;
}

(** Route [req] by [key] through the failover/backoff machinery.
    [Ok] carries the shard's reply — including typed refusals after the
    budget is spent; [Error] means no shard produced any reply. *)
val request : t -> key:string -> Wire.request -> (outcome, string) result

(** {!request} with the spec's NPN-class routing key. *)
val synth :
  ?params:Wire.synth_params -> t -> Spec.t -> (outcome, string) result

(** One probe sweep, synchronously (tests; the background prober calls
    the same code). *)
val probe_once : t -> unit

(** Router-level counters and per-shard breaker/traffic state
    (schema ["mmsynth-cluster-stats-v2"]). *)
val stats_json : t -> Json.t

(** The router's verbs for {!Mm_serve.Server.start}/[run], which make it a
    daemon speaking the single-daemon wire protocol: [synth] goes through
    {!synth} in a thread it starts for the request (a shard round trip
    blocks), and a result gains a ["cluster"] object —
    [{"shard", "failover", "attempts"}] — attributing the answer (no shard
    answering at all is [unavailable]); [stats] is {!stats_json}; [health]
    adds [role: "router"] and [n_shards]. A wire [shutdown] drains the
    router only: the shards belong to their supervisor. *)
val handlers : t -> Mm_serve.Server.handlers
