(** Discrete-event grid/block scheduler: the owner of every launch.

    Blocks queue onto the earliest-free SM (approximating the hardware FIFO
    block scheduler). Every device-side launch is serviced by a single
    grid-management unit at one launch per
    {!Config.launch_service_interval} cycles — queueing behind it is the
    launch congestion the paper identifies. Host launches pay
    {!Config.host_launch_latency} and bypass that queue; every one of them,
    from {!Device} or the tenancy driver, goes through {!host_launch}.

    The device hosts any number of {e streams} (tenants): each has its own
    loaded program and aggregation auto-parameters, grid-id namespace and
    {!Metrics.t}, while SMs, the launch queue, memory and the clock are
    shared. The default stream (id 0) shares the device-wide metrics
    record, so the single-program {!Device} API is exactly the one-stream
    special case.

    Every block of a device executes on the domain that drives it, in
    event order; host parallelism lives in independent experiment cells
    ({e Harness.Pool}), never inside one device.

    {b Stratified grid sampling} ([Config.sampling]) layers on top for
    paper-scale runs (see the implementation's module documentation for
    the full model): large grids enqueue only a deterministic sample of
    their blocks, stratified over contiguous block-index ranges, and
    launch-heavy blocks dispatch only a sample of their device launches;
    skipped work is represented by weights on the simulated remainder,
    with a stratified-variance error bound accumulated into
    {!Metrics.sampling_stats}. *)

type dim3 = int * int * int

type t

(** One host stream / tenant: a loaded program with its auto-parameters,
    a grid-id namespace and a metrics record. *)
type stream

(** One unit of tenant work: a root grid plus all descendant grids it
    spawns (device children, host followups). [j_open_grids] counts
    launched-but-unfinished grids; when it returns to 0 the job is done
    and [j_finish] is the last finish time over all its grids. *)
type job = { mutable j_open_grids : int; mutable j_finish : float }

val make_job : unit -> job

val create : Config.t -> Memory.t -> Metrics.t -> t

(** The always-present stream 0, whose metrics are the device-wide
    record. *)
val default_stream : t -> stream

(** [new_stream t] registers a fresh tenant stream (dense ids from 1) with
    its own metrics record and grid-id namespace. *)
val new_stream : t -> stream

(** Every launch, block and compute cycle of the stream's grids is charged
    here. *)
val stream_metrics : stream -> Metrics.t

(** [load_stream ?auto_params t s prog] lowers [prog] ({!Bytecode.compile})
    and loads it onto stream [s], with [auto_params] (kernel name ->
    trailing buffers, from {!Dpopt.Aggregation}) for {!host_launch} to
    allocate. Streams are independent: loading one does not disturb
    another. *)
val load_stream :
  ?auto_params:(string * Dpopt.Aggregation.auto_param list) list ->
  t ->
  stream ->
  Minicu.Ast.program ->
  unit

(** [host_launch ?job ?role ?issue t s ~kernel ~grid ~block ~args] — the
    one host-launch path. Resolves [kernel] on [s], checks the launch
    shape ({!Runtime.check_launch_shape}), allocates the stream's capture
    buffers for it (boxed, zero-filled, sized from this launch's
    configuration) and appends them to [args], checks the argument count,
    and enqueues the grid, schedulable {!Config.host_launch_latency} after
    [issue] (default: the current clock). [job] attaches the grid — and
    transitively every grid it spawns — to a job's open-grid accounting.
    [role] selects how untagged kernel time is attributed: [`Parent]
    (default) or [`Child].
    @raise Value.Runtime_error on unknown kernels, an invalid shape or an
    argument-count mismatch. *)
val host_launch :
  ?job:job ->
  ?role:[ `Parent | `Child ] ->
  ?issue:float ->
  t ->
  stream ->
  kernel:string ->
  grid:dim3 ->
  block:dim3 ->
  args:Value.t list ->
  unit

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

(** Process the single earliest block event: dispatch it onto the
    earliest-free SM, execute it, issue any launches it made, and complete
    its grid (followups, job accounting) if it was the last block.
    External event loops ({e lib/tenancy}) interleave [step] with host
    decisions; {!run_to_idle} is the drain-everything special case.
    @raise Invalid_argument when no events are pending. *)
val step : t -> unit

(** Earliest pending block-event time, if any. *)
val next_event_time : t -> float option

(** Drain all pending work with {!step}; returns (and records) the
    simulated clock. Deferred sampled-out work is folded into the clock
    here. *)
val run_to_idle : t -> float

(** Current simulated time. *)
val clock : t -> float

(** The execution trace (off by default; see {!Trace.enable}). *)
val trace : t -> Trace.t
