(** Shard process supervisor for [mmsynth cluster].

    Spawns one child process per shard spec, watches them with a
    non-blocking [waitpid] loop, and restarts any that die with
    exponential backoff ([restart_base_s] doubling per restart of that
    shard, capped at [restart_cap_s]) — a crashed shard comes back
    without letting a crash loop spin the CPU.

    {!kill_one} is the chaos hook: SIGKILL a shard mid-run (no drain) so
    the storm harness and [make smoke-cluster] can verify the router
    rides out an abrupt shard death while the supervisor brings the
    replacement up.

    {!stop} is graceful: SIGTERM everything (shards drain per
    {!Mm_serve.Server}'s signal handling), wait up to [term_grace_s],
    then SIGKILL the stragglers. *)

type spawn = {
  id : string;  (** shard identity, for logs *)
  argv : string array;  (** argv.(0) is the executable path *)
}

type t

(** Spawn every shard and start the supervision thread.
    @raise Invalid_argument on an empty list. *)
val start :
  ?restart_base_s:float ->
  ?restart_cap_s:float ->
  ?log:(string -> unit) ->
  spawn list ->
  t

(** Total restarts performed across all shards. *)
val restarts : t -> int

(** SIGKILL shard [i] (0-based). The supervisor restarts it. *)
val kill_one : t -> int -> unit

(** SIGTERM all, wait [term_grace_s] (default 5 s), SIGKILL stragglers,
    reap everything, stop the supervision thread. *)
val stop : ?term_grace_s:float -> t -> unit
