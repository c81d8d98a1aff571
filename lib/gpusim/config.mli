(** Device model parameters for the GPU simulator.

    The defaults sketch a Volta-class device scaled to interpreted dataset
    sizes: the {e ratios} between launch cost, memory cost and ALU
    throughput drive the paper's effects (launch congestion, hardware
    underutilization, divergence), not the absolute values. All times are
    cycles of a nominal SM clock. *)

(** The execution engine that runs device code. There is one, the
    bytecode VM ({!Bytecode}/{!Vm}); the type and {!t.engine} exist only so
    that host-time benchmark records can stamp which engine produced
    them. *)
type engine = Bytecode

val pp_engine : Format.formatter -> engine -> unit

(** Stratified grid sampling: grids with at least [block_threshold] blocks
    simulate only a deterministic stratified sample of their blocks, and
    blocks issuing at least [launch_threshold] device launches dispatch only
    a sample of them; skipped work is represented by weights (scaled
    metrics, weighted launch-queue service, clock correction at drain).
    Samples are a pure function of [seed] and grid identity. *)
type sampling = {
  block_threshold : int;
  block_frac : float;  (** In (0, 1]. *)
  strata : int;  (** Strata (contiguous block-index ranges) per grid, >= 1. *)
  seed : int;
  launch_threshold : int;
  launch_frac : float;
}

val default_sampling : sampling

type t = {
  (* execution engine *)
  engine : engine;  (** Always [Bytecode]; see {!engine}. *)
  sampling : sampling option;
      (** [None] (default) = exact: bit-identical to the pre-sampling
          scheduler. *)
  (* machine shape *)
  num_sms : int;
  warp_size : int;
  sm_warp_parallelism : int;
      (** Warp instructions retired per cycle per SM. *)
  max_threads_per_block : int;
  (* instruction costs (cycles per warp-instruction) *)
  arith_cost : int;
  mem_cost : int;
  atomic_cost : int;
  branch_cost : int;
  sync_cost : int;
  fence_cost : int;
  warp_collective_cost : int;
  alloc_cost : int;
  call_cost : int;
  (* dynamic-parallelism costs *)
  launch_issue_cost : int;
      (** Instructions the launching thread runs to issue a device launch. *)
  cdp_entry_cost : int;
      (** Per-thread cost at entry to any kernel whose body contains a
          launch, even if never executed — the Section VIII-D effect. *)
  device_launch_latency : int;
  host_launch_latency : int;
  launch_service_interval : int;
      (** The grid-management unit serves one pending launch per this many
          cycles; queueing here is the paper's launch congestion. *)
  block_sched_overhead : int;
  (* sanitizer *)
  check : bool;
      (** Enable the dynamic sanitizer ({!Racecheck}). Off by default;
          instrumentation is chosen when {!Bytecode.compile} lowers the
          program (checked instruction variants only under [check]), so
          [check = false] runs pay nothing. *)
}

val default : t

(** Small machine, cheap launches: for unit tests. *)
val test_config : t

