(** Minimum Spanning Tree (Boruvka, Table I benchmarks MSTF and MSTV). GPU
    kernels find each component's minimum outgoing edge (MSTF) and verify
    cross-component edges (MSTV); component merging runs on the host, as in
    the LonestarGPU original. Packed (weight, edge-id) minima make every
    variant pick identical edges. *)

(** Host-side Boruvka (MSTF's reference and profile, MSTV's component
    state): (total MST weight, final component array, rounds run). *)
val host_boruvka : ?max_rounds:int -> Workloads.Csr.t -> int * int array * int

val mstf_spec : dataset:Workloads.Graph_gen.named -> Bench_common.spec
val mstv_spec : dataset:Workloads.Graph_gen.named -> Bench_common.spec
