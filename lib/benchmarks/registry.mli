(** The benchmark × dataset matrix of Table I, at scaled-down sizes
    (MiniCU is interpreted; see DESIGN.md). *)

(** [Large] is paper-scale (RMAT scale 13, 100k+ Bezier lines): meant for
    sampled runs ([--sample]); exact large runs work but are slow. *)
type size = Small | Medium | Large

(** Parse a size, in any case: [small], [medium] or [large]. *)
val size_of_string : string -> (size, [ `Msg of string ]) result

(** Print a size as [small], [medium] or [large]. *)
val pp_size : Format.formatter -> size -> unit

(** Datasets for a size, memoized:
    (KRON, CNR, ROAD, T0032-C16, T2048-C64, RAND-3, 5-SAT).
    The memo table is mutex-guarded, so this is safe to call from
    concurrent domains (e.g. [Harness.Pool] jobs); the returned datasets
    are immutable after construction and may be shared freely. *)
val datasets :
  size ->
  Workloads.Graph_gen.named
  * Workloads.Graph_gen.named
  * Workloads.Graph_gen.named
  * Workloads.Bezier.t
  * Workloads.Bezier.t
  * Workloads.Sat.t
  * Workloads.Sat.t

(** All 14 (benchmark, dataset) pairs of Fig. 9 / Table I. *)
val all : ?size:size -> unit -> Bench_common.spec list

(** The graph benchmarks on the road network (Fig. 12). *)
val road : ?size:size -> unit -> Bench_common.spec list

(** Table I: each benchmark with its datasets, in {!all}'s order. *)
val table1 : (string * string list) list

(** The spec of one pair of {!all} or {!road}; builds only that spec. *)
val find :
  ?size:size -> name:string -> dataset:string -> unit ->
  Bench_common.spec option
