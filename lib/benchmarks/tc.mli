(** Triangle Counting (edge-iterator with binary search, Table I). The
    per-edge child grid has deg(u) threads. The edge list is capped, as the
    paper also uses "parts of the graphs" for TC. *)

val child_block : int
val cdp_src : string
val no_cdp_src : string
val edge_list : ?cap:int -> Workloads.Csr.t -> int array * int array
val reference : Workloads.Csr.t -> cap:int -> unit -> int

(** [spec ?cap ~dataset ()] — the graph is neighbor-sorted internally. *)
val spec :
  ?cap:int -> dataset:Workloads.Graph_gen.named -> unit -> Bench_common.spec
