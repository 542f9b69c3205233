(** Live statistics for the serve daemon: request/reply counters, the
    cumulative engine summary across all dispatched batches and inline
    answers, and per-stage latency histograms (queue wait, synthesis, total
    round trip).

    All updates are mutex-protected — connection threads and the dispatcher
    share one registry. {!snapshot} renders the whole registry as one JSON
    object ([mmsynth-serve-stats-v7]) served verbatim by the [stats]
    endpoint; the engine sub-object is the shared
    {!Mm_engine.Engine.stats_to_json} schema. v4 adds the [shard] identity
    field so the cluster router and the storm bench can attribute
    per-shard metrics; v7 adds [inline], the synthesis requests answered
    on a connection's reader without the dispatcher ([batches] counts the
    dispatcher's engine calls). *)

module Json = Mm_report.Json

(** Fixed-bucket log-scale latency histogram: 60 geometric buckets from
    1 µs up (ratio [10^(1/6)] ≈ 1.47, topping out above 10^4 s), O(1)
    observe, approximate percentiles (upper bucket bound, i.e. within one
    bucket ratio of the true value, conservative). *)
module Hist : sig
  type t

  val create : unit -> t
  val observe : t -> float -> unit
  val count : t -> int

  (** [percentile t 0.95]; 0 when empty. *)
  val percentile : t -> float -> float

  val mean : t -> float
  val max_seen : t -> float

  (** [{"count", "mean_s", "p50_s", "p95_s", "p99_s", "max_s"}]. *)
  val to_json : t -> Json.t
end

type t

val create : unit -> t
val uptime_s : t -> float

(** [note_request t ~op] with the wire op tag ("synth", "stats", ...). *)
val note_request : t -> op:string -> unit

val note_reply_ok : t -> unit
val note_reply_err : t -> Wire.error_code -> unit
val note_conn_accepted : t -> unit
val note_conn_dropped : t -> unit

(** One engine batch completed: accumulate its summary. *)
val note_batch : t -> Mm_engine.Engine.summary -> unit

(** One synthesis answered on the connection's reader by
    {!Mm_engine.Engine.lookup}: count it [inline], accumulate the lookup's
    summary, observe a zero queue wait and the summary's wall time as its
    synthesis time. *)
val note_inline : t -> Mm_engine.Engine.summary -> unit

val observe_queue_wait : t -> float -> unit
val observe_synth : t -> float -> unit
val observe_total : t -> float -> unit

(** Point-in-time gauges are passed by the server at snapshot time;
    [shard] is the daemon's identity (configured shard id, else its
    socket path). *)
val snapshot :
  t ->
  shard:string ->
  queue_depth:int ->
  active_conns:int ->
  draining:bool ->
  cache_entries:int option ->
  Json.t
