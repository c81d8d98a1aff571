(** Triangle Counting (edge-iterator with binary search, Table I). The
    per-edge child grid has deg(u) threads. The edge list is capped, as the
    paper also uses "parts of the graphs" for TC. *)

(** [reference g ~cap ()] counts the triangles the first [cap] edges
    (u, v), u < v, of the neighbor-sorted graph [g] close. *)
val reference : Workloads.Csr.t -> cap:int -> unit -> int

(** [spec ?cap ~dataset ()] — the graph is neighbor-sorted internally. *)
val spec :
  ?cap:int -> dataset:Workloads.Graph_gen.named -> unit -> Bench_common.spec
