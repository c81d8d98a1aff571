(** Register VM: the simulator's execution engine for lowered MiniCU
    ({!Bytecode}).

    Executes over unboxed per-thread register banks; threads are explicit
    state machines, and per-block thread records live in a reusable
    {!scratch} arena owned by the scheduler. A block advances warp by
    warp: warp collectives evaluate over the live lanes of a warp,
    [__syncthreads] is a block-wide epoch barrier, and threads that
    returned early count as arrived. A warp's cost per tag is the maximum
    over its lanes (lockstep execution makes the straggler the critical
    path); a block's cost is the sum over warps, scaled by
    {!Config.sm_warp_parallelism}. *)

(** Reusable per-scheduler arena of thread records (register banks, call
    stacks, cost counters). One scratch must only be used by one block
    execution at a time. *)
type scratch

val create_scratch : unit -> scratch

(** Execute one block of [kernel]; memory side effects happen
    immediately. [metrics] receives what the block observes as it runs,
    unweighted: each serialized launch, out-of-bounds accesses and race
    findings. The block's cost (per-tag cycles, serialized-launch count)
    is returned, for the scheduler to charge at the block's weight.
    @raise Value.Runtime_error on memory faults, divergent warp
    collectives, or blocks that neither finish nor reach a barrier. *)
val run_block :
  scratch ->
  Bytecode.prog ->
  Bytecode.func ->
  args:Value.t list ->
  gdim:int * int * int ->
  bdim:int * int * int ->
  bidx:int * int * int ->
  mem:Memory.t ->
  cfg:Config.t ->
  metrics:Metrics.t ->
  default_idx:int ->
  Runtime.result

(** Execute a host followup (grid-granularity aggregation) starting at
    code index [entry] (the kernel's [bf_followup]) in a single
    pseudo-thread with host-launch semantics; returns the launches issued.
    No device cost is charged — the host is not the simulated device. *)
val run_host_stmts :
  Bytecode.prog ->
  Bytecode.func ->
  entry:int ->
  args:Value.t list ->
  grid:int * int * int ->
  block:int * int * int ->
  mem:Memory.t ->
  cfg:Config.t ->
  metrics:Metrics.t ->
  Runtime.launch_req list
