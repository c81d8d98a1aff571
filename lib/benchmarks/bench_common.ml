(** Shared machinery for the seven Table I benchmarks.

    Each benchmark provides two MiniCU translation units — a [No CDP]
    version (parent threads loop over their nested work) and a [CDP] version
    (parent threads launch child grids) — plus an OCaml host driver that
    works against either, and a pure-OCaml reference implementation used by
    the test suite to validate every transformed variant's output. *)

(* Nested-parallelism profile of a whole benchmark run, consumed by the
   cost model (lib/costmodel, as [Costmodel.Profile.t]). One array entry
   per parent work item in processing order; computed from the dataset
   when the spec is built, so it reflects the workload itself, never a
   simulation. Drivers whose item stream is execution-order dependent
   (BFS/SSSP worklists) record the closest statically-computable stand-in;
   see each benchmark. *)
type workload = {
  child_sizes : int array;
  rounds : int;
  parent_block : int;
}

type spec = {
  name : string;  (** Benchmark name (paper Table I): BFS, BT, ... *)
  dataset : string;  (** Dataset name: KRON, CNR, T0032-C16, ... *)
  cdp_src : string;  (** MiniCU source using dynamic parallelism. *)
  no_cdp_src : string;  (** MiniCU source without dynamic parallelism. *)
  parent_kernel : string;
  max_child_threads : int;
      (** Largest dynamic launch size in the CDP version; the threshold is
          not tuned beyond this (Section VII) except for Fig. 12. *)
  workload : workload;
  run : Gpusim.Device.t -> int;
      (** Drive the loaded program to completion (all launches and syncs);
          returns the output fingerprint. For a benchmark with a
          [native_host], this is {!Native.Hostspec.exec} of that spec plus
          the read-back of its output buffers. *)
  reference : unit -> int;
      (** Pure-OCaml reference result; must equal [run]'s fingerprint. *)
  native_host : Native.Hostspec.t option;
      (** The host driver as data, for benchmarks whose driver is static
          (no read-back-dependent control flow) and whose user-visible
          memory is order-independent: [run] executes it on the simulator,
          and the native backend's differential layer replays it on both
          backends and compares dumps. [None] for iterative drivers (BFS,
          MSTF and SSSP worklists). *)
}

type variant = No_cdp | Cdp of Dpopt.Pipeline.options

(** Position-sensitive fingerprint (for outputs that are true arrays). *)
let array_hash (a : int array) =
  let acc = ref 17 in
  Array.iter (fun x -> acc := (!acc * 31) + x land 0x3FFFFFFFFFFFFFF) a;
  !acc

let quantize f = int_of_float (Float.round (f *. 1024.0))

(** [once f] is [f] that computes its value on the first call and returns
    that value afterwards. Domain-safe: two domains racing on the first
    call may both compute, so [f] must be pure. *)
let once f =
  let cell = Atomic.make None in
  fun () ->
    match Atomic.get cell with
    | Some v -> v
    | None ->
        let v = f () in
        Atomic.set cell (Some v);
        v

(** The allocations that upload a CSR graph: buffers 0, 1 and 2 of a host
    spec that starts with them hold weight, col and row. *)
let graph_ops (g : Workloads.Csr.t) : Native.Hostspec.op list =
  Native.Hostspec.[ Alloc_ints g.weight; Alloc_ints g.col; Alloc_ints g.row ]

(** Upload a CSR graph with {!graph_ops}; returns (row, col, weight) device
    pointers. *)
let upload_graph dev (g : Workloads.Csr.t) =
  match Native.Hostspec.exec dev { ops = graph_ops g } with
  | [| weight; col; row |] -> (row, col, weight)
  | _ -> assert false

(* The worklist host loop BFS and SSSP share: the frontier and next
   buffers swap after every round, and the count the kernel bumps is read
   back to size the next launch. *)
let frontier_loop dev ~n ~source ~kernel ?(max_rounds = max_int) args =
  let open Gpusim in
  let frontier = ref (Device.alloc_int_zeros dev n) in
  let next = ref (Device.alloc_int_zeros dev n) in
  let count = Device.alloc_int_zeros dev 1 in
  Device.write_ints dev !frontier [| source |];
  let n_frontier = ref 1 and round = ref 0 in
  while !n_frontier > 0 && !round < max_rounds do
    incr round;
    Device.write_ints dev count [| 0 |];
    Device.launch dev ~kernel
      ~grid:((!n_frontier + 127) / 128, 1, 1)
      ~block:(128, 1, 1)
      ~args:
        (args ~round:!round
           [ Value.Ptr !frontier; Int !n_frontier; Ptr !next; Ptr count ]);
    ignore (Device.sync dev);
    n_frontier := (Device.read_ints dev count 1).(0);
    let f = !frontier in
    frontier := !next;
    next := f
  done

(* The same loop replayed sequentially on the host, for the workload
   profile: each round is one launch, each frontier vertex one parent item
   whose child size is its out-degree. *)
let replay_frontier (g : Workloads.Csr.t) ~source ?(max_rounds = max_int)
    visit =
  let sizes = ref [] and rounds = ref 0 and frontier = ref [ source ] in
  while !frontier <> [] && !rounds < max_rounds do
    incr rounds;
    let next = ref [] in
    List.iter
      (fun v ->
        sizes := (g.row.(v + 1) - g.row.(v)) :: !sizes;
        visit v (fun u -> next := u :: !next))
      !frontier;
    frontier := List.rev !next
  done;
  {
    child_sizes = Array.of_list (List.rev !sizes);
    rounds = !rounds;
    parent_block = 128;
  }

(** The identity: the device takes the aggregation pass's specs as they
    are. Kept only for the benchmark driver in perfbench/sim.ml. *)
let to_device_auto (aps : (string * Dpopt.Aggregation.auto_param list) list) =
  aps

(** [load_variant dev spec variant] compiles the right source through the
    optimization pipeline and loads it. *)
let load_variant ?cfg spec variant : Gpusim.Device.t =
  let dev = Gpusim.Device.create ?cfg () in
  (match variant with
  | No_cdp ->
      Gpusim.Device.load_program dev (Minicu.Parser.program spec.no_cdp_src)
  | Cdp opts ->
      let prog = Minicu.Parser.program spec.cdp_src in
      let r = Dpopt.Pipeline.run ~opts prog in
      Gpusim.Device.load_program dev r.prog ~auto_params:r.auto_params);
  dev

(** [run_variant ?cfg spec variant] — load, run, return
    (fingerprint, simulated time, metrics). *)
let run_variant ?cfg spec variant =
  let dev = load_variant ?cfg spec variant in
  let t0 = Gpusim.Device.time dev in
  let fp = spec.run dev in
  let t1 = Gpusim.Device.time dev in
  (fp, t1 -. t0, Gpusim.Device.metrics dev)
