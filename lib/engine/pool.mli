(** Multicore batch execution on OCaml 5 domains.

    [run jobs] executes independent thunks on a small fixed set of worker
    domains (spawning one domain per job would exhaust the runtime's domain
    limit on large batches). Results come back in submission order — slot
    [i] of the result array always belongs to [jobs.(i)] regardless of which
    worker ran it or when it finished.

    Crash isolation: an exception escaping a job is caught and reported as
    a typed {!error} in that job's slot — exception text plus the backtrace
    captured at the crash site (backtrace recording is enabled by [run]) —
    and never takes down the worker domain or the batch. Wall-clock budgets
    are cooperative: a job that should stop early must watch its own
    deadline (the SAT solver's [~timeout] does). *)

(** A crashed job: what was raised, and from where. [backtrace] is the
    string form of the backtrace at the raise (possibly empty when the
    runtime has no frames to report). *)
type error = { exn : string; backtrace : string }

(** [Domain.recommended_domain_count () - 1] workers, at least 1. *)
val default_domains : unit -> int

(** [run ?domains jobs]. [domains] defaults to
    {!default_domains} and is additionally clamped to the job count;
    [domains = 1] runs everything on the calling domain (no spawning), which
    is the sequential baseline the bench compares against. *)
val run : ?domains:int -> (unit -> 'a) array -> ('a, error) result array
