(** A work-stealing job pool on OCaml 5 domains.

    The sweep consumers ([runbench --sweep], {!Ablation}, {!Figures},
    [bin/dpfuzz]) all evaluate large batches of mutually independent
    (benchmark, dataset, variant) or (seed, variant, config) cells. The
    pool runs such batches across [jobs] worker domains while keeping the
    {e results} deterministic: {!run} and the [map] wrappers always return
    results in submission (index) order, and an exception raised by a job
    is re-raised in the caller for the {e lowest} failing index, whatever
    order the jobs actually completed in. Output produced from the results
    is therefore bit-identical between [~jobs:1] and [~jobs:N].

    Scheduling is work-stealing under a single lock: each worker owns a
    queue seeded round-robin with batch indices, pops its own queue first,
    and steals half of the largest other queue when it runs dry. Workers
    are persistent — they are spawned once by {!create}, sleep on a
    condition variable between batches, and exit on {!shutdown} — so the
    per-batch overhead is one broadcast, not [jobs] domain spawns.

    {b Determinism contract for jobs.} Jobs run concurrently in arbitrary
    order, so they must not print, and must not mutate state shared with
    other jobs: each job builds its own {!Gpusim.Device} / {!Gpusim.Memory}
    / {!Gpusim.Metrics} (see the domain-safety notes in those interfaces).
    All reporting belongs in the caller, iterating the returned array.

    {b Reentrancy.} Calling {!run} on a pool from inside one of its own
    jobs deadlocks; give nested work its own pool or run it inline. A pool
    may be {e used} from any single domain at a time, but not from two
    concurrently. *)

type t

(** [Domain.recommended_domain_count () - 1] (one domain is left for the
    submitting caller), at least 1. *)
val default_jobs : unit -> int

(** [create ~jobs ()] spawns [jobs - 1] worker domains ([jobs = 1] spawns
    none: every batch then runs sequentially, in index order, in the
    caller). [jobs] defaults to {!default_jobs}; values below 1 are
    clamped to 1. *)
val create : ?jobs:int -> unit -> t

(** The parallelism this pool was created with (>= 1). *)
val jobs : t -> int

(** [run pool f n] evaluates [f 0 .. f (n - 1)] on the pool and returns
    [[| f 0; ...; f (n - 1) |]]. If any jobs raised, the exception of the
    lowest-index failure is re-raised (with its backtrace) after the whole
    batch has settled. *)
val run : t -> (int -> 'a) -> int -> 'a array

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

(** Stop and join the workers. The pool must not be used afterwards;
    idempotent. *)
val shutdown : t -> unit

(** [with_pool ~jobs f] — [create], apply [f], always [shutdown]. *)
val with_pool : ?jobs:int -> (t -> 'a) -> 'a
