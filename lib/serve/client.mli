(** Pipelined client for the {!Server} wire protocol.

    One [t] wraps one connection. Requests are {e pipelined}: any number of
    threads may have requests in flight on the same connection — frame
    writes are serialized under a mutex, and a dedicated reader thread
    demultiplexes replies to their waiters by frame id (the daemon answers
    some frames on its reader at once and others later, when a queued
    synthesis ends, so replies can arrive in any order).
    All failures are returned, never raised: transport problems
    ([Error msg]) are distinct from typed daemon refusals ([Ok (Err _)]).

    {!retry} turns [overloaded] sheds into jittered, budgeted backoff
    honoring the server's [retry_after_s] hint — the polite way to ride
    out a load spike instead of failing on the first shed. *)

module Json = Mm_report.Json
module Spec = Mm_boolfun.Spec

type addr = Unix_sock of string | Tcp of string * int

val pp_addr : addr -> string

type t

(** [connect addr] — [read_timeout] (default 60 s) bounds each reply wait
    so a hung daemon cannot block a caller forever (the connection is
    still usable after one request times out; the late reply, if any, is
    discarded by id). *)
val connect : ?read_timeout:float -> addr -> (t, string) result

val close : t -> unit

(** The connection has not seen a transport error and is not closed.
    A false return is sticky: reconnect to recover. *)
val alive : t -> bool

(** [wait_ready addr] polls [connect] until the daemon accepts (startup
    race helper for tests and scripts). Total budget [timeout] seconds
    (default 5). *)
val wait_ready : ?timeout:float -> addr -> (t, string) result

(** Backoff policy for {e shed} ([overloaded]) replies: up to [max_tries]
    attempts within [budget_s] seconds total (defaults 8 and 2.0),
    sleeping {!backoff} between them — deterministic per [seed]. *)
type retry

val retry : ?budget_s:float -> ?max_tries:int -> ?seed:int -> unit -> retry

(** [backoff rng ~hint ~attempt ~remaining]: the pause before retry
    [attempt] (0-based) — [hint] (a shed's [retry_after_s], 50 ms when
    absent or not positive) × 2{^attempt} × a jitter in [0.5, 1.5) drawn from [rng], capped
    at [remaining] seconds. {!retry} and the cluster router's rounds both
    wait this long. *)
val backoff :
  Mm_device.Rng.t -> hint:float option -> attempt:int -> remaining:float -> float

(** Send, block for the id-matched reply. With [?retry], [overloaded]
    refusals are retried under the policy; every other outcome returns
    immediately. *)
val request : ?retry:retry -> t -> Wire.request -> (Wire.reply, string) result

val synth :
  ?timeout:float ->
  ?deadline:float ->
  ?fallback:string ->
  ?retry:retry ->
  t ->
  Spec.t ->
  (Wire.reply, string) result

val stats : t -> (Wire.reply, string) result
val health : t -> (Wire.reply, string) result
val ping : t -> (Wire.reply, string) result

(** Ask the daemon to drain. The [ok] reply arrives before the drain. *)
val shutdown : t -> (Wire.reply, string) result
