(** Single-Source Shortest Path (worklist Bellman-Ford, LonestarGPU-style;
    Table I).

    Each iteration relaxes the out-edges of every vertex in the worklist;
    any vertex whose distance improves is enqueued for the next round
    (deduplicated with an in-queue flag). The per-vertex edge loop is the
    nested parallelism. Distances converge to the same fixpoint no matter
    how the atomics interleave, so all variants produce identical output. *)

let child_block = 64

let relax_body =
  {|
      int u = col[start + e];
      int alt = dv + w[start + e];
      int old = atomicMin(&dist[u], alt);
      if (alt < old) {
        if (atomicExch(&inq[u], 1) == 0) {
          int idx = atomicAdd(&next_count[0], 1);
          next_frontier[idx] = u;
        }
      }
|}

let cdp_src =
  Fmt.str
    {|
__global__ void sssp_child(int* col, int* w, int* dist, int* inq, int* next_frontier, int* next_count, int start, int deg, int dv) {
  int e = blockIdx.x * blockDim.x + threadIdx.x;
  if (e < deg) {
%s
  }
}

__global__ void sssp_parent(int* row, int* col, int* w, int* dist, int* inq, int* frontier, int n_frontier, int* next_frontier, int* next_count) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n_frontier) {
    int v = frontier[i];
    inq[v] = 0;
    int start = row[v];
    int deg = row[v + 1] - start;
    int dv = dist[v];
    if (deg > 0) {
      sssp_child<<<(deg + %d) / %d, %d>>>(col, w, dist, inq, next_frontier, next_count, start, deg, dv);
    }
  }
}
|}
    relax_body (child_block - 1) child_block child_block

let no_cdp_src =
  Fmt.str
    {|
__global__ void sssp_parent(int* row, int* col, int* w, int* dist, int* inq, int* frontier, int n_frontier, int* next_frontier, int* next_count) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n_frontier) {
    int v = frontier[i];
    inq[v] = 0;
    int start = row[v];
    int deg = row[v + 1] - start;
    int dv = dist[v];
    for (int e = 0; e < deg; e = e + 1) {
%s
    }
  }
}
|}
    relax_body

let source = 0
let inf = 1 lsl 40

(** Dijkstra reference. *)
let reference (g : Workloads.Csr.t) () =
  let dist = Array.make g.n inf in
  dist.(source) <- 0;
  let module PQ = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let pq = ref (PQ.singleton (0, source)) in
  while not (PQ.is_empty !pq) do
    let ((d, v) as el) = PQ.min_elt !pq in
    pq := PQ.remove el !pq;
    if d = dist.(v) then
      for e = g.row.(v) to g.row.(v + 1) - 1 do
        let u = g.col.(e) in
        let alt = d + g.weight.(e) in
        if alt < dist.(u) then begin
          dist.(u) <- alt;
          pq := PQ.add (alt, u) !pq
        end
      done
  done;
  Bench_common.array_hash dist

let run (g : Workloads.Csr.t) dev =
  let open Gpusim in
  let d_row, d_col, d_w = Bench_common.upload_graph dev g in
  let dist = Array.make g.n inf in
  dist.(source) <- 0;
  let d_dist = Device.alloc_ints dev dist in
  let d_inq = Device.alloc_int_zeros dev g.n in
  Bench_common.frontier_loop dev ~n:g.n ~source ~kernel:"sssp_parent"
    ~max_rounds:(4 * g.n) (fun ~round:_ worklist ->
      Value.[ Ptr d_row; Ptr d_col; Ptr d_w; Ptr d_dist; Ptr d_inq ]
      @ worklist);
  Bench_common.array_hash (Device.read_ints dev d_dist g.n)

(* Workload profile: the exact worklist contents depend on how atomics
   interleave, so use the closest statically-computable stand-in — a
   sequential replay of the same worklist relaxation (dist + in-queue
   dedup, one fixed interleaving). Unlike a plain BFS replay it counts
   re-relaxations, which dominate the item count on skewed graphs. *)
let workload (g : Workloads.Csr.t) =
  let dist = Array.make g.n inf in
  dist.(source) <- 0;
  let inq = Array.make g.n false in
  Bench_common.replay_frontier g ~source ~max_rounds:(4 * g.n) (fun v push ->
      inq.(v) <- false;
      let dv = dist.(v) in
      for e = g.row.(v) to g.row.(v + 1) - 1 do
        let u = g.col.(e) in
        let alt = dv + g.weight.(e) in
        if alt < dist.(u) then begin
          dist.(u) <- alt;
          if not inq.(u) then begin
            inq.(u) <- true;
            push u
          end
        end
      done)

let spec ~(dataset : Workloads.Graph_gen.named) : Bench_common.spec =
  {
    name = "SSSP";
    dataset = dataset.name;
    cdp_src;
    no_cdp_src;
    parent_kernel = "sssp_parent";
    max_child_threads = Workloads.Csr.max_degree dataset.graph;
    workload = workload dataset.graph;
    run = run dataset.graph;
    reference = Bench_common.once (reference dataset.graph);
    native_host = None;
  }
