(** Host-side device API — the MiniCU analogue of the CUDA runtime: one
    program on the default stream of a {!Sched}, which owns every launch.

    {[
      let r = Dpopt.Pipeline.run ~opts prog in
      let dev = Device.create () in
      Device.load_program dev r.prog ~auto_params:r.auto_params;
      let d_data = Device.alloc_ints dev data in
      Device.launch dev ~kernel:"parent" ~grid:(blocks, 1, 1)
        ~block:(256, 1, 1) ~args:[ Ptr d_data; Int n ];
      let elapsed_cycles = Device.sync dev in
      let result = Device.read_ints dev d_data n in
      ...
    ]}

    {b Domain safety.} A device owns all of its mutable simulation state —
    its {!Memory.t}, {!Metrics.t}, scheduler and trace buffer — and there
    is no global mutable state in [gpusim]. Distinct [t] values may
    therefore be driven from distinct domains concurrently (this is how
    [Harness.Pool] jobs run), but a single [t] must only ever be used by
    one domain at a time — and it runs every one of its blocks on that
    domain. *)

type dim3 = int * int * int

type t

val create : ?cfg:Config.t -> unit -> t
val metrics : t -> Metrics.t
val memory : t -> Memory.t
val config : t -> Config.t

(** [load_program t prog ~auto_params] typechecks and compiles [prog] onto
    the device. [auto_params] is the aggregation pass's result
    ([Dpopt.Aggregation.result.auto_params]): the trailing buffer
    parameters it appended to parent kernels (the "pre-allocated memory
    buffer" of the paper's Fig. 7). Host launches keep passing the
    original arguments; each launch allocates those buffers, zero-filled
    and sized from its configuration, and appends the pointers. *)
val load_program :
  ?auto_params:(string * Dpopt.Aggregation.auto_param list) list ->
  t ->
  Minicu.Ast.program ->
  unit

(** {1 Memory management} *)

val alloc : t -> int -> init:Value.t -> Value.ptr
val alloc_ints : t -> int array -> Value.ptr
val alloc_int_zeros : t -> int -> Value.ptr
val alloc_floats : t -> float array -> Value.ptr
val alloc_float_zeros : t -> int -> Value.ptr
val read_ints : t -> Value.ptr -> int -> int array
val read_floats : t -> Value.ptr -> int -> float array
val write_ints : t -> Value.ptr -> int array -> unit
val write_floats : t -> Value.ptr -> float array -> unit
val free : t -> Value.ptr -> unit

(** {1 Deterministic-replay hooks}

    The simulator is fully deterministic: a (program, workload, config)
    triple always produces the same memory image and metrics. These let a
    checker snapshot the driver-allocated buffers (ids are dense, in
    allocation order) and compare them bit-for-bit across compiled variants
    of the same program — see [lib/difftest]. *)

(** Buffers ever allocated on this device (driver and kernel allocations). *)
val buffer_count : t -> int

(** [dump_memory t ~first] — copies of the first [first] buffers, in
    allocation order (see {!Memory.dump}). *)
val dump_memory : t -> first:int -> Value.t array list

(** {1 Kernel launch} *)

(** [launch t ~kernel ~grid ~block ~args] issues a host-side launch on the
    default stream through {!Sched.host_launch}, asynchronously (work runs
    at the next {!sync}). [role] selects how untagged kernel time is
    attributed: [`Parent] (default) or [`Child].
    @raise Value.Runtime_error on unknown kernels, argument-count mismatch,
    or a grid or block component below 1 or too many threads per block. *)
val launch :
  ?role:[ `Parent | `Child ] ->
  t ->
  kernel:string ->
  grid:dim3 ->
  block:dim3 ->
  args:Value.t list ->
  unit

(** Drain all pending work; returns the simulated clock (cycles). *)
val sync : t -> float

(** Current simulated time. Monotonic across launches and syncs. *)
val time : t -> float

(** {1 Execution tracing} (off by default; see {!Gpusim.Trace}) *)

val enable_trace : t -> unit
val trace_events : t -> Trace.event list
val clear_trace : t -> unit

(** [elapsed t f] runs [f ()] followed by a {!sync}; returns the simulated
    cycles taken. *)
val elapsed : t -> (unit -> unit) -> float
