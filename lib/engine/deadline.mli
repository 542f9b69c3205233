(** Batch deadline manager: distributes one global wall-clock budget over
    the pending instances of a batch.

    The paper's optimality runs can individually time out ("optimality
    proof timed out", Table IV); a sweep of thousands of instances must
    additionally bound the {e batch}. [create ?wall] fixes an absolute
    deadline; each job calls {!claim} as it starts and receives a
    per-instance solver budget of [min default_per_call (remaining /
    pending)] — early finishers leave time on the table that later
    claimants automatically inherit, and once the deadline has passed
    {!claim} returns [None], telling the caller to skip the solver and
    degrade (fallback circuit) instead of starting work it cannot finish.

    All operations are mutex-protected; pool workers on different domains
    share one manager. Without [?wall] the manager is unbounded: {!claim}
    always grants the full per-call budget. *)

type t

(** [create ?wall ~pending ~default_per_call ()] — [wall] is the global
    budget in seconds from now; [pending] the number of instances that
    will claim. *)
val create : ?wall:float -> pending:int -> default_per_call:float -> unit -> t

(** Budget for an instance starting now, or [None] when the global
    deadline is exhausted. Does not change [pending]. *)
val claim : t -> float option

(** Mark one instance complete (or abandoned): future claims divide the
    remaining time among one fewer instance. *)
val finish : t -> unit

(** Seconds until the deadline ([None] = unbounded). May be negative. *)
val remaining : t -> float option

val expired : t -> bool
