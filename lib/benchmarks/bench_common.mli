(** Shared machinery for the seven Table I benchmarks: each provides a
    No-CDP and a CDP MiniCU translation unit, an OCaml host driver that
    works against either, and a pure-OCaml reference used to validate every
    transformed variant's output. *)

(** The nested-parallelism shape of a benchmark run, as the cost model
    ({e lib/costmodel}, which names this type [Costmodel.Profile.t})
    consumes it: one entry per parent work item over the whole application
    run, in processing order. [child_sizes.(i)] is the child-thread count
    item [i] wants (0 when the parent thread does no nested work); [rounds]
    is how many host-side parent-grid launches the driver performs;
    [parent_block] is the driver's parent block size. Profiles are computed
    from the dataset at spec-construction time — they describe the
    workload, not a simulation. Iterative drivers whose item stream depends
    on execution order (BFS frontiers, SSSP worklists) use the closest
    statically-computable stand-in, documented per benchmark. *)
type workload = {
  child_sizes : int array;
      (** Per parent work item, in processing order; 0 = no nested work. *)
  rounds : int;  (** Host launches of the parent kernel over the run. *)
  parent_block : int;  (** Threads per block of those host launches. *)
}

(** A spec prepares its dataset once, when it is built: [workload],
    [reference] and [native_host] read that preparation, which is
    immutable, so one spec's [run] and [reference] may be called from
    several domains at once. *)
type spec = {
  name : string;  (** BFS, BT, MSTF, MSTV, SP, SSSP, TC. *)
  dataset : string;  (** KRON, CNR, ROAD, T0032-C16, ... *)
  cdp_src : string;
  no_cdp_src : string;
  parent_kernel : string;
  max_child_threads : int;
      (** Largest dynamic launch size; bounds threshold tuning
          (Section VII). *)
  workload : workload;  (** Nested-parallelism profile for the cost model. *)
  run : Gpusim.Device.t -> int;
      (** Drive the loaded program to completion; returns the output
          fingerprint. With a [native_host], this executes that spec
          ({!Native.Hostspec.exec}) and reads its output buffers back. *)
  reference : unit -> int;  (** Pure-OCaml expected fingerprint. *)
  native_host : Native.Hostspec.t option;
      (** The host driver as data ({!Native.Hostspec}) when it is static
          and its user-visible memory order-independent (BT, MSTV, SP,
          TC): the one driver both [run] and the native backend execute.
          [None] for iterative (read-back-driven) drivers: BFS, MSTF and
          SSSP. *)
}

(** A code version of a benchmark (Section VII); [Harness.Variant.t] is
    this type. *)
type variant =
  | No_cdp  (** The original version without dynamic parallelism. *)
  | Cdp of Dpopt.Pipeline.options
      (** The CDP version, run through the compiler with these passes. *)

(** Position-sensitive fingerprint. *)
val array_hash : int array -> int

(** Quantize a float to a stable integer (×1024, rounded). *)
val quantize : float -> int

(** [once f] computes [f ()] on its first call and returns that value on
    every later one; each spec's [reference] is built with it. Domain-safe:
    two domains racing on the first call may both compute, so [f] must be
    pure. *)
val once : (unit -> 'a) -> unit -> 'a

(** The allocations that upload a CSR graph: buffers 0, 1 and 2 of a host
    spec that starts with them hold weight, col and row, the layout the
    recorded run digests ([test/corpus/vm_runs.golden]) pin. *)
val graph_ops : Workloads.Csr.t -> Native.Hostspec.op list

(** Upload a CSR graph by executing {!graph_ops}; returns (row, col,
    weight) device pointers. *)
val upload_graph :
  Gpusim.Device.t ->
  Workloads.Csr.t ->
  Gpusim.Value.ptr * Gpusim.Value.ptr * Gpusim.Value.ptr

(** [frontier_loop dev ~n ~source ~kernel ?max_rounds args] is the
    worklist host loop of BFS and SSSP. After the caller's own buffers it
    allocates the frontier and the next frontier ([n] ints each) and a
    one-int count, and puts [source] in the frontier. Then, until a round
    leaves the next frontier empty or [max_rounds] rounds have run, it
    resets the count, launches [kernel] over the frontier in 128-thread
    blocks, syncs, reads the count back and swaps the two frontiers. The
    launch arguments are [args ~round tail], where [round] counts from 1
    and [tail] is [frontier; frontier size; next; count]. *)
val frontier_loop :
  Gpusim.Device.t ->
  n:int ->
  source:int ->
  kernel:string ->
  ?max_rounds:int ->
  (round:int -> Gpusim.Value.t list -> Gpusim.Value.t list) ->
  unit

(** [replay_frontier g ~source ?max_rounds visit] replays {!frontier_loop}
    sequentially on the host for a workload profile: [visit v push]
    processes frontier vertex [v] and [push]es each vertex it enqueues.
    Each round is one launch of 128-thread blocks; each frontier vertex
    is one parent item whose child size is its out-degree. *)
val replay_frontier :
  Workloads.Csr.t ->
  source:int ->
  ?max_rounds:int ->
  (int -> (int -> unit) -> unit) ->
  workload

(** The identity, kept only for the benchmark driver in perfbench/sim.ml:
    the device takes the aggregation pass's specs as they are. *)
val to_device_auto :
  (string * Dpopt.Aggregation.auto_param list) list ->
  (string * Dpopt.Aggregation.auto_param list) list

(** Compile the right source through the pipeline and load it onto a fresh
    device. *)
val load_variant : ?cfg:Gpusim.Config.t -> spec -> variant -> Gpusim.Device.t

(** Load, run, return (fingerprint, simulated cycles, metrics). *)
val run_variant :
  ?cfg:Gpusim.Config.t -> spec -> variant -> int * float * Gpusim.Metrics.t
