(** Minimum Spanning Tree (Boruvka, Table I benchmarks MSTF and MSTV). GPU
    kernels find each component's minimum outgoing edge (MSTF) and verify
    cross-component edges (MSTV); component merging runs on the host, as in
    the LonestarGPU original. Packed (weight, edge-id) minima make every
    variant pick identical edges. *)

val child_block : int
val inf_packed : int
val find_cdp_src : string
val find_no_cdp_src : string
val verify_cdp_src : string
val verify_no_cdp_src : string

(** Host-side Boruvka (reference and MSTV state generator):
    (total MST weight, final component array, rounds run). *)
val host_boruvka : ?max_rounds:int -> Workloads.Csr.t -> int * int array * int

val mstf_reference : Workloads.Csr.t -> unit -> int
val mstf_run : Workloads.Csr.t -> Gpusim.Device.t -> int
val mstv_reference : Workloads.Csr.t -> unit -> int
val mstf_spec : dataset:Workloads.Graph_gen.named -> Bench_common.spec
val mstv_spec : dataset:Workloads.Graph_gen.named -> Bench_common.spec
