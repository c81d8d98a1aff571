(** Breadth-First Search (SHOC-style frontier BFS, Table I).

    Each iteration expands the current frontier: a parent thread takes one
    frontier vertex and visits its neighbors, labelling unvisited ones with
    the current level and appending them to the next frontier. The
    per-vertex neighbor loop is the nested parallelism: in the CDP version
    the parent launches a child grid with one thread per neighbor. *)

let child_block = 64

let cdp_src =
  Fmt.str
    {|
__global__ void bfs_child(int* col, int* labels, int* next_frontier, int* next_count, int start, int deg, int level) {
  int e = blockIdx.x * blockDim.x + threadIdx.x;
  if (e < deg) {
    int u = col[start + e];
    if (atomicCAS(&labels[u], -1, level) == -1) {
      int idx = atomicAdd(&next_count[0], 1);
      next_frontier[idx] = u;
    }
  }
}

__global__ void bfs_parent(int* row, int* col, int* labels, int* frontier, int n_frontier, int* next_frontier, int* next_count, int level) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n_frontier) {
    int v = frontier[i];
    int start = row[v];
    int deg = row[v + 1] - start;
    if (deg > 0) {
      bfs_child<<<(deg + %d) / %d, %d>>>(col, labels, next_frontier, next_count, start, deg, level);
    }
  }
}
|}
    (child_block - 1) child_block child_block

let no_cdp_src =
  {|
__global__ void bfs_parent(int* row, int* col, int* labels, int* frontier, int n_frontier, int* next_frontier, int* next_count, int level) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n_frontier) {
    int v = frontier[i];
    int start = row[v];
    int deg = row[v + 1] - start;
    for (int e = 0; e < deg; e = e + 1) {
      int u = col[start + e];
      if (atomicCAS(&labels[u], -1, level) == -1) {
        int idx = atomicAdd(&next_count[0], 1);
        next_frontier[idx] = u;
      }
    }
  }
}
|}

let source = 0

(* One level-synchronous replay of the BFS from [source]: the labels the
   reference hashes, and the workload profile (each level is one host
   launch of [bfs_parent]). *)
let replay (g : Workloads.Csr.t) =
  let labels = Array.make g.n (-1) in
  labels.(source) <- 0;
  let workload =
    Bench_common.replay_frontier g ~source (fun v push ->
        for e = g.row.(v) to g.row.(v + 1) - 1 do
          let u = g.col.(e) in
          if labels.(u) = -1 then begin
            labels.(u) <- labels.(v) + 1;
            push u
          end
        done)
  in
  (labels, workload)

(** Pure-OCaml reference: BFS levels from [source]. *)
let reference g () = Bench_common.array_hash (fst (replay g))

let run (g : Workloads.Csr.t) dev =
  let open Gpusim in
  let d_row, d_col, _ = Bench_common.upload_graph dev g in
  let labels = Array.make g.n (-1) in
  labels.(source) <- 0;
  let d_labels = Device.alloc_ints dev labels in
  Bench_common.frontier_loop dev ~n:g.n ~source ~kernel:"bfs_parent"
    (fun ~round:level worklist ->
      Value.[ Ptr d_row; Ptr d_col; Ptr d_labels ] @ worklist @ [ Int level ]);
  Bench_common.array_hash (Device.read_ints dev d_labels g.n)

let spec ~(dataset : Workloads.Graph_gen.named) : Bench_common.spec =
  let labels, workload = replay dataset.graph in
  {
    name = "BFS";
    dataset = dataset.name;
    cdp_src;
    no_cdp_src;
    parent_kernel = "bfs_parent";
    max_child_threads = Workloads.Csr.max_degree dataset.graph;
    workload;
    run = run dataset.graph;
    reference = Bench_common.once (fun () -> Bench_common.array_hash labels);
    native_host = None;
  }
