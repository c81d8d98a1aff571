(** Triangle Counting (edge-iterator with binary search, in the style of
    Mailthody et al.; Table I).

    For each undirected edge (u, v) with u < v, one parent thread counts the
    common neighbors w > v of u and v: a child thread per neighbor of u
    binary-searches it in v's (sorted) adjacency list. The per-edge child
    grid size is deg(u) — heavy-tailed on KRON/CNR.

    As in the paper ("for TC, we use parts of the graphs ... due to memory
    constraints"), the edge list is capped. *)

let child_block = 64

let count_body =
  {|
      int x = col[ustart + e];
      if (x > v) {
        int lo = row[v];
        int hi = row[v + 1] - 1;
        int found = 0;
        while (lo <= hi) {
          int mid = (lo + hi) / 2;
          int y = col[mid];
          if (y == x) {
            found = 1;
            lo = hi + 1;
          } else {
            if (y < x) {
              lo = mid + 1;
            } else {
              hi = mid - 1;
            }
          }
        }
        if (found == 1) {
          atomicAdd(&count[0], 1);
        }
      }
|}

let cdp_src =
  Fmt.str
    {|
__global__ void tc_child(int* row, int* col, int* count, int ustart, int udeg, int v) {
  int e = blockIdx.x * blockDim.x + threadIdx.x;
  if (e < udeg) {
%s
  }
}

__global__ void tc_parent(int* row, int* col, int* e_src, int* e_dst, int* count, int n_edges) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n_edges) {
    int u = e_src[i];
    int v = e_dst[i];
    int ustart = row[u];
    int udeg = row[u + 1] - ustart;
    if (udeg > 0) {
      tc_child<<<(udeg + %d) / %d, %d>>>(row, col, count, ustart, udeg, v);
    }
  }
}
|}
    count_body (child_block - 1) child_block child_block

let no_cdp_src =
  Fmt.str
    {|
__global__ void tc_parent(int* row, int* col, int* e_src, int* e_dst, int* count, int n_edges) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n_edges) {
    int u = e_src[i];
    int v = e_dst[i];
    int ustart = row[u];
    int udeg = row[u + 1] - ustart;
    for (int e = 0; e < udeg; e = e + 1) {
%s
    }
  }
}
|}
    count_body

(* The capped u<v edge list of a sorted graph. *)
let edge_list ?(cap = 6000) (g : Workloads.Csr.t) =
  let src = ref [] and dst = ref [] and count = ref 0 in
  (try
     for v = 0 to g.n - 1 do
       for e = g.row.(v) to g.row.(v + 1) - 1 do
         let u = g.col.(e) in
         if v < u then begin
           src := v :: !src;
           dst := u :: !dst;
           incr count;
           if !count >= cap then raise Exit
         end
       done
     done
   with Exit -> ());
  (Array.of_list (List.rev !src), Array.of_list (List.rev !dst))

(* Triangles closed by the edges [(e_src.(i), e_dst.(i))]. *)
let count_triangles (g : Workloads.Csr.t) (e_src, e_dst) () =
  let count = ref 0 in
  Array.iteri
    (fun i u ->
      let v = e_dst.(i) in
      for e = g.row.(u) to g.row.(u + 1) - 1 do
        let x = g.col.(e) in
        if x > v then begin
          (* binary search x in adj(v) *)
          let lo = ref g.row.(v) and hi = ref (g.row.(v + 1) - 1) in
          let found = ref false in
          while !lo <= !hi do
            let mid = (!lo + !hi) / 2 in
            if g.col.(mid) = x then begin
              found := true;
              lo := !hi + 1
            end
            else if g.col.(mid) < x then lo := mid + 1
            else hi := mid - 1
          done;
          if !found then incr count
        end
      done)
    e_src;
  !count

let reference g ~cap = count_triangles g (edge_list ~cap g)

(* The host driver: the only output is the integer triangle counter
   (atomicAdd), so the dump is order-independent. The graph comes first,
   as [Bench_common.graph_ops] places it (weight, col, row); the unused
   weight buffer keeps that layout. *)
let host (g : Workloads.Csr.t) (e_src, e_dst) : Native.Hostspec.t =
  let n_edges = Array.length e_src in
  let open Native.Hostspec in
  {
    ops =
      Bench_common.graph_ops g
      @ [
          Alloc_ints e_src;
          Alloc_ints e_dst;
          Alloc_int_zeros 1;
          Launch
            {
              kernel = "tc_parent";
              grid = ((n_edges + 127) / 128, 1, 1);
              block = (128, 1, 1);
              args =
                [ A_buf 2; A_buf 1; A_buf 3; A_buf 4; A_buf 5; A_int n_edges ];
            };
          Sync;
        ];
  }

(* Run [host] and read back the triangle counter (buffer 5). *)
let run host dev =
  let bufs = Native.Hostspec.exec dev host in
  (Gpusim.Device.read_ints dev bufs.(5) 1).(0)

let spec ?(cap = 6000) ~(dataset : Workloads.Graph_gen.named) () :
    Bench_common.spec =
  let g = Workloads.Csr.sort_neighbors dataset.graph in
  (* Workload profile: one launch; one parent item per capped edge (u, v)
     with child size = deg(u). *)
  let ((e_src, _) as edges) = edge_list ~cap g in
  let sizes = Array.map (fun u -> g.row.(u + 1) - g.row.(u)) e_src in
  let host = host g edges in
  {
    name = "TC";
    dataset = dataset.name;
    cdp_src;
    no_cdp_src;
    parent_kernel = "tc_parent";
    max_child_threads = Workloads.Csr.max_degree g;
    workload = { child_sizes = sizes; rounds = 1; parent_block = 128 };
    run = run host;
    reference = Bench_common.once (count_triangles g edges);
    native_host = Some host;
  }
