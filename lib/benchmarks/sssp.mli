(** Single-Source Shortest Path (worklist Bellman-Ford, Table I). Converges
    to the Dijkstra fixpoint under any atomic interleaving, so all variants
    produce identical distances. *)

(** The distance of an unreached vertex. *)
val inf : int

(** Dijkstra distances from vertex 0, hashed. *)
val reference : Workloads.Csr.t -> unit -> int

val spec : dataset:Workloads.Graph_gen.named -> Bench_common.spec
