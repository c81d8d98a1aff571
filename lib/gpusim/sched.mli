(** Discrete-event grid/block scheduler.

    Blocks queue onto the earliest-free SM (approximating the hardware FIFO
    block scheduler). Every device-side launch is serviced by a single
    grid-management unit at one launch per
    {!Config.launch_service_interval} cycles — queueing behind it is the
    launch congestion the paper identifies. Host launches pay
    {!Config.host_launch_latency} and bypass that queue.

    The device hosts any number of {e streams} (tenants): each has its own
    loaded program, grid-id namespace and {!Metrics.t}, while SMs, the
    launch queue, memory and the clock are shared. The default stream
    (id 0) shares the device-wide metrics record, so the single-program
    {!Device} API is exactly the one-stream special case.

    Two paper-scale execution modes layer on top (see the implementation's
    module documentation for the full model):

    - {b Parallel block dispatch} ([Config.block_jobs] > 1):
      {!run_to_idle} executes maximal prefixes of provably-independent
      ready blocks ({!Blocksafe} plus a dynamic buffer-disjointness check)
      concurrently on worker domains, committing results in pop order —
      dumps and metrics are byte-identical to the serial drain.
    - {b Stratified grid sampling} ([Config.sampling]): large grids
      enqueue only a deterministic stratified sample of their blocks, and
      launch-heavy blocks dispatch only a sample of their device launches;
      skipped work is represented by weights on the simulated remainder,
      with a stratified-variance error bound accumulated into
      {!Metrics.sampling_stats}. *)

type dim3 = int * int * int

(** A loaded program and a resolved kernel: the VM's lowered form. A
    kernel carries its cross-block independence proof
    ([bf_safety], {!Blocksafe.analyze}) and static per-thread work
    estimate ([bf_static_work], {!Blocksafe.static_work}). *)
type prog = Bytecode.prog

type kernel = Bytecode.func

(** One host stream / tenant. Every launch, block and compute cycle of the
    stream's grids is charged to [st_metrics]; grid ids are dense per
    stream. *)
type stream = {
  st_id : int;  (** Tenant id; 0 is the device's default stream. *)
  mutable st_prog : prog option;
  st_metrics : Metrics.t;
  mutable st_next_grid_id : int;
}

(** One unit of tenant work: a root grid plus all descendant grids it
    spawns (device children, host followups). [j_open_grids] counts
    launched-but-unfinished grids; when it returns to 0 the job is done
    and [j_finish] is the last finish time over all its grids. *)
type job = {
  j_id : int;
  j_tenant : int;
  mutable j_open_grids : int;
  mutable j_finish : float;
}

val make_job : tenant:int -> id:int -> job

(** Per-stratum accounting of a block-sampled grid; folded into the
    stream's {!Metrics.sampling_stats} at grid completion. *)
type strata = {
  sa_counts : int array;  (** Total blocks per stratum. *)
  sa_n : int array;  (** Blocks committed so far per stratum. *)
  sa_sum : float array;
  sa_sumsq : float array;
}

type grid = {
  g_id : int;
  g_stream : stream;
  g_job : job option;
  g_kernel : kernel;
  g_grid : dim3;
  g_block : dim3;
  g_args : Value.t list;
  g_default_idx : int;
  g_weight : float;
      (** Inherited launch-sampling weight: this grid stands for
          [g_weight] identical grids. [1.0] on exact runs. *)
  g_strata : strata option;  (** [Some] exactly when block-sampled. *)
  mutable g_blocks_left : int;  (** Enqueued (sampled) blocks left. *)
  mutable g_last_finish : float;
}

(** A ready block: grid, block index, block-sampling weight (within-grid;
    effective weight is [g_weight *. w]), and stratum index ([-1] when the
    grid is not block-sampled). *)
type event = Block_ready of grid * dim3 * float * int

type t = {
  cfg : Config.t;
  mem : Memory.t;
  metrics : Metrics.t;  (** Device-wide; same record as the default stream's. *)
  events : event Event_queue.t;
  sms : float array;
  mutable launch_q_free : float;
  mutable clock : float;
  mutable deferred_work : float;
      (** SM-cycles represented by sampled-out blocks; folded into the
          clock (divided across SMs) at the next {!run_to_idle} drain. *)
  default_stream : stream;
  mutable next_stream_id : int;
  trace : Trace.t;  (** Off by default; see {!Trace.enable}. *)
  scratch : Vm.scratch;
      (** Reusable per-block thread arena for the VM (serial path). *)
  mutable scratches : Vm.scratch array;
      (** Per-worker arenas for parallel batches; sized on first use. *)
  mutable par_batches : int;
      (** Batches of >= 2 blocks dispatched concurrently on worker
          domains. Host-side accounting (wall-clock observability, the
          [@scale] occupancy gate) — deliberately {e not} part of
          {!Metrics.t}, so parallel dispatch cannot perturb simulated
          results. *)
  mutable par_batch_blocks : int;  (** Blocks executed in those batches. *)
}

val create : Config.t -> Memory.t -> Metrics.t -> t

(** The always-present stream 0, whose [st_metrics] is the device-wide
    record. *)
val default_stream : t -> stream

(** [new_stream t] registers a fresh tenant stream (dense ids from 1) with
    its own metrics record and grid-id namespace. *)
val new_stream : t -> stream

(** [load_stream t s prog] lowers [prog] ({!Bytecode.compile}) and loads
    it onto stream [s]. Streams are independent: loading one does not
    disturb another. *)
val load_stream : t -> stream -> Minicu.Ast.program -> unit

(** Enqueue a grid's blocks (or, under {!Config.sampling}, a deterministic
    stratified sample of them), schedulable from [ready]. [issue] (for
    trace queue-wait accounting) defaults to [ready]; [job] attaches the
    grid — and transitively every grid it spawns — to a job's open-grid
    accounting; [weight] (default 1) is the launch-sampling weight the
    grid inherits. *)
val launch_grid :
  ?issue:float ->
  ?from_host:bool ->
  ?job:job ->
  ?weight:float ->
  t ->
  stream ->
  kernel:kernel ->
  grid:dim3 ->
  block:dim3 ->
  args:Value.t list ->
  ready:float ->
  default_idx:int ->
  unit

(** Route a host-side launch; returns when the grid becomes schedulable.
    Latency is charged to the issuing stream's metrics, scaled by
    [weight] (default 1: bit-identical to the unweighted form). *)
val process_host_launch : ?weight:float -> t -> stream -> issue:float -> float

(** Route a device-side launch through the (shared) grid-management unit;
    returns when the child grid becomes schedulable. Also tracks the
    issuing stream's {!Metrics.t.max_pending_launches}: the number of
    launches queued {e ahead} of this one at issue time — under tenancy
    that includes other tenants' launches (the launch being serviced is
    not pending behind itself: a burst of [n] simultaneous launches peaks
    at [n - 1]). With [weight] > 1 (launch sampling) the one serviced
    launch stands for [weight] identical ones: the queue advances by the
    weighted service time; at the default [weight = 1.0] every expression
    reduces bitwise to the unweighted one. *)
val process_device_launch :
  ?weight:float -> t -> stream -> issue:float -> float

(** Resolve a kernel by name in the stream's loaded program.
    @raise Value.Runtime_error if it is missing or not [__global__]. *)
val resolve_kernel : stream -> string -> kernel

(** Process the single earliest block event: dispatch it onto the
    earliest-free SM, execute it, issue any launches it made, and complete
    its grid (followups, job accounting) if it was the last block.
    External event loops ({e lib/tenancy}) interleave [step] with host
    decisions; {!run_to_idle} is the drain-everything special case.
    @raise Invalid_argument when no events are pending. *)
val step : t -> unit

(** Earliest pending block-event time, if any. *)
val next_event_time : t -> float option

val has_pending_events : t -> bool

(** Drain all pending work; returns (and records) the simulated clock.
    With [Config.block_jobs] > 1 (and [Config.check] off), ready blocks
    execute in provably-independent parallel batches with results
    committed in pop order — byte-identical to the serial drain. Deferred
    sampled-out work is folded into the clock here. *)
val run_to_idle : t -> float
