(** Device model parameters for the GPU simulator.

    The defaults sketch a Volta-class device scaled to the interpreted
    datasets used in this reproduction: the *ratios* between launch cost,
    memory cost and ALU throughput are what drive the paper's observed
    effects (launch congestion, hardware underutilization, divergence), not
    the absolute values. All times are in cycles of a nominal SM clock. *)

(** The execution engine: the bytecode VM ({!Bytecode}/{!Vm}), which lowers
    kernel bodies to a flat instruction array over an unboxed register
    file. It is the only engine; the type exists so host-time benchmark
    records can stamp it. *)
type engine = Bytecode

let pp_engine ppf Bytecode = Fmt.string ppf "bytecode"

(** Stratified grid sampling (paper-scale execution). When enabled, grids
    with at least [block_threshold] blocks simulate only a deterministic
    stratified sample of their blocks; the skipped blocks are represented by
    weights on the sampled ones (metrics are scaled, the launch queue is
    advanced by the weighted service time, and the skipped compute is folded
    into the clock at the next drain). Blocks that issue at least
    [launch_threshold] device launches likewise dispatch only a sample of
    them, with multiplicative inherited weights. The sample is a pure
    function of [seed] and the grid identity. *)
type sampling = {
  block_threshold : int;  (** Sample grids with at least this many blocks. *)
  block_frac : float;  (** Fraction of blocks to simulate, in (0, 1]. *)
  strata : int;  (** Strata (contiguous block-index ranges) per grid, >= 1. *)
  seed : int;  (** Seed for the deterministic sample positions. *)
  launch_threshold : int;
      (** Sample the launch list of blocks issuing at least this many
          device launches. *)
  launch_frac : float;  (** Fraction of such launches to dispatch. *)
}

let default_sampling =
  {
    block_threshold = 24;
    block_frac = 0.25;
    strata = 8;
    seed = 0x5eed;
    launch_threshold = 48;
    launch_frac = 0.25;
  }

type t = {
  (* ---- execution engine ---- *)
  engine : engine;
  sampling : sampling option;
      (** [None] (default) simulates every block exactly — bit-identical to
          the pre-sampling scheduler. *)
  (* ---- machine shape ---- *)
  num_sms : int;  (** Streaming multiprocessors. *)
  warp_size : int;  (** Threads per warp (32 on all NVIDIA GPUs). *)
  sm_warp_parallelism : int;
      (** Warp instructions retired per cycle per SM (warp schedulers). *)
  max_threads_per_block : int;
  (* ---- instruction cost model (cycles per warp-instruction) ---- *)
  arith_cost : int;
  mem_cost : int;  (** Amortized global-memory access. *)
  atomic_cost : int;  (** Global atomic read-modify-write. *)
  branch_cost : int;
  sync_cost : int;  (** [__syncthreads()]. *)
  fence_cost : int;  (** [__threadfence()]. *)
  warp_collective_cost : int;
  alloc_cost : int;  (** Device-side [malloc]. *)
  call_cost : int;  (** Device-function call overhead. *)
  (* ---- dynamic parallelism costs ---- *)
  launch_issue_cost : int;
      (** Instructions executed by the launching thread to prepare and issue
          a device-side launch. *)
  cdp_entry_cost : int;
      (** Per-thread cost charged at entry to any kernel whose body contains
          a launch statement, even if never executed. Models the extra SASS
          the paper measures in Section VIII-D. *)
  device_launch_latency : int;
      (** Base latency from launch issue until the child grid is visible to
          the grid scheduler. *)
  host_launch_latency : int;  (** Same, for host-issued launches. *)
  launch_service_interval : int;
      (** The grid-management unit processes one pending launch per this many
          cycles; queueing behind it is the congestion the paper describes. *)
  block_sched_overhead : int;  (** Cycles to dispatch one block onto an SM. *)
  (* ---- sanitizer ---- *)
  check : bool;
      (** Enable the dynamic sanitizer ({!Racecheck}): per-block shadow
          logging of memory accesses with barrier-epoch tags, plus source
          locations on out-of-bounds reports. Off by default; the
          instrumentation is chosen when the program is lowered, so runs
          with [check = false] pay nothing. *)
}

let default =
  {
    engine = Bytecode;
    sampling = None;
    num_sms = 32;
    warp_size = 32;
    sm_warp_parallelism = 4;
    max_threads_per_block = 1024;
    arith_cost = 1;
    mem_cost = 4;
    atomic_cost = 16;
    branch_cost = 1;
    sync_cost = 8;
    fence_cost = 16;
    warp_collective_cost = 8;
    alloc_cost = 400;
    call_cost = 4;
    launch_issue_cost = 300;
    cdp_entry_cost = 16;
    device_launch_latency = 2500;
    host_launch_latency = 600;
    launch_service_interval = 500;
    block_sched_overhead = 120;
    check = false;
  }

(** A tiny configuration for unit tests: one SM, cheap launches, so tests
    exercise semantics without large simulated times. *)
let test_config =
  {
    default with
    num_sms = 2;
    launch_service_interval = 10;
    device_launch_latency = 10;
    host_launch_latency = 10;
    block_sched_overhead = 1;
  }
