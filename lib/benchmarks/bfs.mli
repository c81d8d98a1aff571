(** Breadth-First Search (SHOC-style frontier BFS, Table I). The per-vertex
    neighbor loop is the nested parallelism; the CDP version launches one
    child grid per frontier vertex. *)

(** BFS levels from vertex 0, hashed. *)
val reference : Workloads.Csr.t -> unit -> int

val spec : dataset:Workloads.Graph_gen.named -> Bench_common.spec
