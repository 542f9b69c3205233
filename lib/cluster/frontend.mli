(** Wire-protocol front-end for a {!Router}: one Unix-domain socket that
    speaks the same {!Mm_serve.Wire} protocol as a single daemon, so any
    existing client ([mmsynth client], {!Mm_serve.Client}) talks to the
    whole cluster unchanged.

    [synth] requests are routed through {!Router.request}; successful
    results gain a ["cluster"] object — [{"shard", "failover", "hedged",
    "attempts"}] — attributing the answer. [stats] returns the router's
    cluster stats ({!Router.stats_json}), [health] a small router status,
    and [shutdown] begins a front-end drain (the shards themselves are
    owned by their supervisor, not stopped from here).

    Each connection gets a reader thread and each frame its own handler
    thread (replies are id-matched under a per-connection write mutex),
    mirroring the daemon's pipelining: a synth request slow-walking the
    retry budget never stalls a ping behind it. *)

module Wire = Mm_serve.Wire

type t

(** Listen on [socket_path]. [Error] when a live listener already holds
    the path (its socket file is left in place) or the socket cannot be
    bound; a stale socket file is replaced. *)
val start :
  ?log:(string -> unit) -> Router.t -> socket_path:string -> (t, string) result

(** Begin drain (idempotent, non-blocking): stop accepting, answer
    in-flight frames, close. *)
val request_stop : t -> unit

(** A drain has been requested (by {!request_stop} or a wire
    [shutdown]). *)
val draining : t -> bool

(** Join the accept thread, give connection threads a short grace. *)
val wait : t -> unit

(** {!request_stop} + {!wait}. *)
val stop : t -> unit
