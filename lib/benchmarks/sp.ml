(** Survey Propagation (LonestarGPU-style message passing on the factor
    graph of a CNF formula; Table I).

    Each round, every variable updates the survey of each clause slot it
    occupies: the new survey of edge (clause c, slot s) is a product over
    the other slots of c of a damping of their current surveys. The
    per-variable occurrence loop is the nested parallelism; on RAND-3 every
    variable occurs in only ≈ 12 clauses, which is why the paper calls out
    SP/RAND-3 as a low-nested-parallelism case (Section VIII-D).

    Surveys are double-buffered, so each output cell is written by exactly
    one thread and all variants produce bit-identical floats. *)

let child_block = 32
let rounds = 3

let update_body =
  {|
      int oi = start + e;
      int c = o_cidx[oi];
      int slot = o_slot[oi];
      int cb = c_row[c];
      int ce = c_row[c + 1];
      float prod = 1.0;
      for (int s = cb; s < ce; s = s + 1) {
        if (s != cb + slot) {
          prod = prod * (0.5 + 0.5 * eta_old[s]);
        }
      }
      eta_new[cb + slot] = prod;
|}

let cdp_src =
  Fmt.str
    {|
__global__ void sp_child(int* o_cidx, int* o_slot, int* c_row, float* eta_old, float* eta_new, int start, int deg) {
  int e = blockIdx.x * blockDim.x + threadIdx.x;
  if (e < deg) {
%s
  }
}

__global__ void sp_parent(int* o_row, int* o_cidx, int* o_slot, int* c_row, float* eta_old, float* eta_new, int n_vars) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < n_vars) {
    int start = o_row[v];
    int deg = o_row[v + 1] - start;
    if (deg > 0) {
      sp_child<<<(deg + %d) / %d, %d>>>(o_cidx, o_slot, c_row, eta_old, eta_new, start, deg);
    }
  }
}
|}
    update_body (child_block - 1) child_block child_block

let no_cdp_src =
  Fmt.str
    {|
__global__ void sp_parent(int* o_row, int* o_cidx, int* o_slot, int* c_row, float* eta_old, float* eta_new, int n_vars) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < n_vars) {
    int start = o_row[v];
    int deg = o_row[v + 1] - start;
    for (int e = 0; e < deg; e = e + 1) {
%s
    }
  }
}
|}
    update_body

(* Flattened factor-graph arrays for a formula. *)
type arrays = {
  o_row : int array;  (** Variable -> occurrence range. *)
  o_cidx : int array;  (** Occurrence -> clause index. *)
  o_slot : int array;  (** Occurrence -> slot within the clause. *)
  c_row : int array;  (** Clause -> survey-cell range (cells = slots). *)
  n_cells : int;
}

let build_arrays (f : Workloads.Sat.t) : arrays =
  let nc = Workloads.Sat.n_clauses f in
  let c_row = Array.make (nc + 1) 0 in
  for c = 0 to nc - 1 do
    c_row.(c + 1) <- c_row.(c) + Array.length f.clauses.(c)
  done;
  let occs = Array.make f.n_vars [] in
  Array.iteri
    (fun c lits ->
      Array.iteri
        (fun slot lit ->
          let v = abs lit - 1 in
          occs.(v) <- (c, slot) :: occs.(v))
        lits)
    f.clauses;
  let o_row = Array.make (f.n_vars + 1) 0 in
  for v = 0 to f.n_vars - 1 do
    o_row.(v + 1) <- o_row.(v) + List.length occs.(v)
  done;
  let total = o_row.(f.n_vars) in
  let o_cidx = Array.make total 0 and o_slot = Array.make total 0 in
  for v = 0 to f.n_vars - 1 do
    List.iteri
      (fun i (c, slot) ->
        o_cidx.(o_row.(v) + i) <- c;
        o_slot.(o_row.(v) + i) <- slot)
      (List.rev occs.(v))
  done;
  { o_row; o_cidx; o_slot; c_row; n_cells = c_row.(nc) }

let initial_eta n_cells =
  Array.init n_cells (fun i -> 0.1 +. (0.8 *. Float.rem (float_of_int i *. 0.61803398875) 1.0))

(* The reference over the factor-graph arrays [a] the spec built. *)
let reference (a : arrays) () =
  let eta = ref (initial_eta a.n_cells) in
  let eta' = ref (Array.make a.n_cells 0.0) in
  for _ = 1 to rounds do
    (* every occurrence, variable by variable *)
    for oi = 0 to Array.length a.o_cidx - 1 do
      let c = a.o_cidx.(oi) and slot = a.o_slot.(oi) in
      let cb = a.c_row.(c) and ce = a.c_row.(c + 1) in
      let prod = ref 1.0 in
      for s = cb to ce - 1 do
        if s <> cb + slot then prod := !prod *. (0.5 +. (0.5 *. !eta.(s)))
      done;
      !eta'.(cb + slot) <- !prod
    done;
    let tmp = !eta in
    eta := !eta';
    eta' := tmp
  done;
  Bench_common.array_hash (Array.map Bench_common.quantize !eta)

(* The buffer round [r] writes. Surveys are double-buffered between eta
   (buffer 4, the initial surveys) and eta' (buffer 5): round [r] reads
   [written (r + 1)], which round [r - 1] wrote. *)
let written r = if r mod 2 = 0 then 5 else 4

(* The host driver: each output cell is written by exactly one thread per
   round, so every buffer in the dump is order-independent. *)
let host (f : Workloads.Sat.t) (a : arrays) : Native.Hostspec.t =
  let open Native.Hostspec in
  let round r =
    [
      Launch
        {
          kernel = "sp_parent";
          grid = ((f.n_vars + 127) / 128, 1, 1);
          block = (128, 1, 1);
          args =
            [
              A_buf 0; A_buf 1; A_buf 2; A_buf 3; A_buf (written (r + 1));
              A_buf (written r); A_int f.n_vars;
            ];
        };
      Sync;
    ]
  in
  {
    ops =
      [
        Alloc_ints a.o_row;
        Alloc_ints a.o_cidx;
        Alloc_ints a.o_slot;
        Alloc_ints a.c_row;
        Alloc_floats (initial_eta a.n_cells);
        Alloc_float_zeros a.n_cells;
      ]
      @ List.concat (List.init rounds round);
  }

(* Run [host] and read back the surveys the last round wrote. *)
let run host (a : arrays) dev =
  let bufs = Native.Hostspec.exec dev host in
  Bench_common.array_hash
    (Array.map Bench_common.quantize
       (Gpusim.Device.read_floats dev bufs.(written (rounds - 1)) a.n_cells))

let spec ~(formula : Workloads.Sat.t) : Bench_common.spec =
  let a = build_arrays formula in
  (* Workload profile: [rounds] host launches, each visiting every variable
     with child size = its clause-occurrence count. *)
  let per_round =
    Array.init formula.n_vars (fun v -> a.o_row.(v + 1) - a.o_row.(v))
  in
  let host = host formula a in
  {
    name = "SP";
    dataset = formula.name;
    cdp_src;
    no_cdp_src;
    parent_kernel = "sp_parent";
    max_child_threads = Array.fold_left max 0 per_round;
    workload =
      {
        child_sizes = Array.concat (List.init rounds (fun _ -> per_round));
        rounds;
        parent_block = 128;
      };
    run = run host a;
    reference = Bench_common.once (reference a);
    native_host = Some host;
  }
