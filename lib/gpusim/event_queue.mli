(** A binary min-heap keyed by (time, insertion sequence): pops are
    deterministic — ties resolve in insertion order — which the simulator
    relies on for reproducible runs.

    {!pop} clears the vacated heap slot, so popped payloads are not
    retained by the backing array (they can be collected as soon as the
    caller drops them).

    Domain-safety: a queue is not thread-safe; each simulated device owns
    its own queue and must be confined to one domain at a time. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int
val push : 'a t -> float -> 'a -> unit

(** [pop t] removes and returns the earliest event.
    @raise Invalid_argument when empty. *)
val pop : 'a t -> float * 'a

val peek_time : 'a t -> float option
