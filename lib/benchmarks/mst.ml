(** Minimum Spanning Tree (Boruvka, LonestarGPU-style; Table I benchmarks
    MSTF and MSTV).

    Boruvka rounds alternate between a GPU {e find} kernel — every vertex
    scans its edges and [atomicMin]s the lightest edge leaving its component
    into the component's slot — and component merging, which (as in the
    LonestarGPU code the paper builds on) is cheap pointer manipulation and
    runs on the host here. The paper evaluates the find kernel (MSTF) and
    the verify kernel (MSTV) as separate benchmarks; we do the same.

    Edge weights are packed with the edge index ([w * 2^20 + e]) so the
    per-component minimum is unique and every variant picks identical
    edges. *)

let child_block = 64
let inf_packed = 1 lsl 40

let find_body =
  {|
      int u = col[start + e];
      int cu = comp[u];
      if (cu != cv) {
        atomicMin(&best[cv], w[start + e] * 1048576 + start + e);
      }
|}

let find_cdp_src =
  Fmt.str
    {|
__global__ void mst_find_child(int* col, int* w, int* comp, int* best, int start, int deg, int cv) {
  int e = blockIdx.x * blockDim.x + threadIdx.x;
  if (e < deg) {
%s
  }
}

__global__ void mst_find_parent(int* row, int* col, int* w, int* comp, int* best, int n) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < n) {
    int start = row[v];
    int deg = row[v + 1] - start;
    int cv = comp[v];
    if (deg > 0) {
      mst_find_child<<<(deg + %d) / %d, %d>>>(col, w, comp, best, start, deg, cv);
    }
  }
}
|}
    find_body (child_block - 1) child_block child_block

let find_no_cdp_src =
  Fmt.str
    {|
__global__ void mst_find_parent(int* row, int* col, int* w, int* comp, int* best, int n) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < n) {
    int start = row[v];
    int deg = row[v + 1] - start;
    int cv = comp[v];
    for (int e = 0; e < deg; e = e + 1) {
%s
    }
  }
}
|}
    find_body

let verify_body =
  {|
      int u = col[start + e];
      if (comp[u] != cv) {
        flags[start + e] = 1;
        atomicAdd(&n_cross[0], 1);
      } else {
        flags[start + e] = 0;
      }
|}

let verify_cdp_src =
  Fmt.str
    {|
__global__ void mst_verify_child(int* col, int* comp, int* flags, int* n_cross, int start, int deg, int cv) {
  int e = blockIdx.x * blockDim.x + threadIdx.x;
  if (e < deg) {
%s
  }
}

__global__ void mst_verify_parent(int* row, int* col, int* comp, int* flags, int* n_cross, int n) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < n) {
    int start = row[v];
    int deg = row[v + 1] - start;
    int cv = comp[v];
    if (deg > 0) {
      mst_verify_child<<<(deg + %d) / %d, %d>>>(col, comp, flags, n_cross, start, deg, cv);
    }
  }
}
|}
    verify_body (child_block - 1) child_block child_block

let verify_no_cdp_src =
  Fmt.str
    {|
__global__ void mst_verify_parent(int* row, int* col, int* comp, int* flags, int* n_cross, int n) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < n) {
    int start = row[v];
    int deg = row[v + 1] - start;
    int cv = comp[v];
    for (int e = 0; e < deg; e = e + 1) {
%s
    }
  }
}
|}
    verify_body

(* ---------- host-side Boruvka machinery ---------- *)

let find_root comp v =
  let r = ref v in
  while comp.(!r) <> !r do
    r := comp.(!r)
  done;
  !r

(* Flatten all component pointers to roots. *)
let flatten comp =
  Array.iteri (fun v _ -> comp.(v) <- find_root comp v) comp

(* Merge components along each component's chosen minimum edge. Returns the
   weight added and whether any merge happened. *)
let merge_round (g : Workloads.Csr.t) comp best =
  let added = ref 0 and merged = ref false in
  Array.iteri
    (fun c packed ->
      if comp.(c) = c && packed < inf_packed then begin
        let e = packed mod 1048576 in
        let w = packed / 1048576 in
        (* the find kernel stored this for edges leaving c, so the source
           endpoint's component is c; the destination's is the other side *)
        let u = g.col.(e) in
        let ru = find_root comp u in
        let rc = find_root comp c in
        if ru <> rc then begin
          (* break symmetric-merge cycles deterministically: smaller root
             becomes parent *)
          if rc < ru then comp.(ru) <- rc else comp.(rc) <- ru;
          added := !added + w;
          merged := true
        end
      end)
    best;
  !added, !merged

(* Run Boruvka entirely on the host (the reference and the state generator
   for MSTV). Returns (total weight, final component array, rounds run). *)
let host_boruvka ?(max_rounds = max_int) (g : Workloads.Csr.t) =
  let comp = Array.init g.n Fun.id in
  let total = ref 0 in
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ && !rounds < max_rounds do
    incr rounds;
    flatten comp;
    let best = Array.make g.n inf_packed in
    for v = 0 to g.n - 1 do
      let cv = comp.(v) in
      for e = g.row.(v) to g.row.(v + 1) - 1 do
        let cu = comp.(g.col.(e)) in
        if cu <> cv then
          best.(cv) <- min best.(cv) ((g.weight.(e) * 1048576) + e)
      done
    done;
    let added, merged = merge_round g comp best in
    total := !total + added;
    continue_ := merged
  done;
  flatten comp;
  (!total, comp, !rounds)

(* ---------- MSTF ---------- *)

let mstf_run (g : Workloads.Csr.t) dev =
  let open Gpusim in
  let d_row, d_col, d_w = Bench_common.upload_graph dev g in
  let comp = Array.init g.n Fun.id in
  let d_comp = Device.alloc_int_zeros dev g.n in
  let d_best = Device.alloc_int_zeros dev g.n in
  let total = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    flatten comp;
    Device.write_ints dev d_comp comp;
    Device.write_ints dev d_best (Array.make g.n inf_packed);
    Device.launch dev ~kernel:"mst_find_parent"
      ~grid:((g.n + 127) / 128, 1, 1)
      ~block:(128, 1, 1)
      ~args:[ Ptr d_row; Ptr d_col; Ptr d_w; Ptr d_comp; Ptr d_best; Int g.n ];
    ignore (Device.sync dev);
    let best = Device.read_ints dev d_best g.n in
    let added, merged = merge_round g comp best in
    total := !total + added;
    continue_ := merged
  done;
  flatten comp;
  !total + Bench_common.array_hash comp

(* ---------- MSTV ---------- *)

(* MSTV verifies against the component state after two Boruvka rounds
   (mid-algorithm, where both intra- and inter-component edges exist). *)
let mstv_rounds = 2

(* The MSTV host driver: one verify launch over the component state
   [comp]. Each flag is written by one thread and the cross count is an
   integer atomic sum, so the dump is order-independent. Buffers 0-2 hold
   the graph ([Bench_common.graph_ops]), 3 the components, 4 the flags
   and 5 the cross count. *)
let mstv_host (g : Workloads.Csr.t) comp : Native.Hostspec.t =
  let open Native.Hostspec in
  {
    ops =
      Bench_common.graph_ops g
      @ [
          Alloc_ints comp;
          Alloc_int_zeros (Workloads.Csr.m g);
          Alloc_int_zeros 1;
          Launch
            {
              kernel = "mst_verify_parent";
              grid = ((g.n + 127) / 128, 1, 1);
              block = (128, 1, 1);
              args = [ A_buf 2; A_buf 1; A_buf 3; A_buf 4; A_buf 5; A_int g.n ];
            };
          Sync;
        ];
  }

(* Run [host] and read back the cross count (buffer 5) and the flags
   (buffer 4). *)
let mstv_run host (g : Workloads.Csr.t) dev =
  let bufs = Native.Hostspec.exec dev host in
  let cross = (Gpusim.Device.read_ints dev bufs.(5) 1).(0) in
  cross
  + Bench_common.array_hash
      (Gpusim.Device.read_ints dev bufs.(4) (Workloads.Csr.m g))

(* What the verify kernel computes over [comp], in pure OCaml. *)
let mstv_reference (g : Workloads.Csr.t) comp =
  let flags = Array.make (Workloads.Csr.m g) 0 in
  let cross = ref 0 in
  for v = 0 to g.n - 1 do
    for e = g.row.(v) to g.row.(v + 1) - 1 do
      if comp.(g.col.(e)) <> comp.(v) then begin
        flags.(e) <- 1;
        incr cross
      end
    done
  done;
  !cross + Bench_common.array_hash flags

(* Both find and verify launch over all n vertices with child size =
   out-degree. *)
let degrees (g : Workloads.Csr.t) =
  Array.init g.n (fun v -> g.row.(v + 1) - g.row.(v))

(* The full host Boruvka gives MSTF both its reference (total weight and
   final components) and its profile (the find launch once per round). *)
let mstf_spec ~(dataset : Workloads.Graph_gen.named) : Bench_common.spec =
  let g = dataset.graph in
  let total, comp, rounds = host_boruvka g in
  let per_round = degrees g in
  {
    name = "MSTF";
    dataset = dataset.name;
    cdp_src = find_cdp_src;
    no_cdp_src = find_no_cdp_src;
    parent_kernel = "mst_find_parent";
    max_child_threads = Workloads.Csr.max_degree g;
    workload =
      {
        child_sizes = Array.concat (List.init rounds (fun _ -> per_round));
        rounds;
        parent_block = 128;
      };
    run = mstf_run g;
    reference = (fun () -> total + Bench_common.array_hash comp);
    native_host = None;
  }

let mstv_spec ~(dataset : Workloads.Graph_gen.named) : Bench_common.spec =
  let g = dataset.graph in
  let _, comp, _ = host_boruvka ~max_rounds:mstv_rounds g in
  let host = mstv_host g comp in
  let reference = mstv_reference g comp in
  {
    name = "MSTV";
    dataset = dataset.name;
    cdp_src = verify_cdp_src;
    no_cdp_src = verify_no_cdp_src;
    parent_kernel = "mst_verify_parent";
    max_child_threads = Workloads.Csr.max_degree g;
    workload = { child_sizes = degrees g; rounds = 1; parent_block = 128 };
    run = mstv_run host g;
    reference = (fun () -> reference);
    native_host = Some host;
  }
