(** Host-side device API — the MiniCU analogue of the CUDA runtime.

    A typical driver:

    {[
      let dev = Device.create () in
      Device.load_program dev prog ~auto_params;
      let d_data = Device.alloc_ints dev data in
      Device.launch dev ~kernel:"parent" ~grid:(n_blocks, 1, 1)
        ~block:(256, 1, 1) ~args:[ Ptr d_data; Int n ];
      let elapsed = Device.sync dev in
      let result = Device.read_ints dev d_data n in
      ...
    ]} *)

type dim3 = int * int * int

(** Runtime-allocated trailing parameters for transformed kernels.

    The aggregation pass appends buffer parameters to the parent kernel
    (argument/configuration arrays and counters — the "pre-allocated memory
    buffer" of the paper's Fig. 7 line 17). Drivers keep launching with the
    original arguments; the runtime allocates each auto buffer, zero-filled,
    sized by [ap_elems] from the actual launch configuration, and appends the
    pointers. *)
type auto_param = {
  ap_name : string;  (** Parameter name, for debugging. *)
  ap_elems : grid:dim3 -> block:dim3 -> int;
}

type t = {
  cfg : Config.t;
  mem : Memory.t;
  metrics : Metrics.t;
  sched : Sched.t;
  mutable auto_params : (string * auto_param list) list;
}

let create ?(cfg = Config.default) () =
  let mem = Memory.create () in
  let metrics = Metrics.create () in
  { cfg; mem; metrics; sched = Sched.create cfg mem metrics; auto_params = [] }

let metrics t = t.metrics
let memory t = t.mem
let config t = t.cfg

(** [load_program t prog ~auto_params] typechecks [prog] and lowers it
    onto the device ({!Bytecode.compile}).
    [auto_params] maps kernel names to the runtime-allocated trailing
    parameters their transformed signatures expect. *)
let load_program ?(auto_params = []) t (prog : Minicu.Ast.program) =
  Sched.load_stream t.sched (Sched.default_stream t.sched) prog;
  t.auto_params <- auto_params

(** {1 Memory management} *)

let alloc t n ~init : Value.ptr = Memory.alloc t.mem n ~init

let alloc_ints t (a : int array) =
  let p = Memory.alloc t.mem (Array.length a) ~init:(Value.Int 0) in
  Memory.write_ints t.mem p a;
  p

let alloc_int_zeros t n = Memory.alloc t.mem n ~init:(Value.Int 0)

let alloc_floats t (a : float array) =
  let p = Memory.alloc t.mem (Array.length a) ~init:(Value.Float 0.0) in
  Memory.write_floats t.mem p a;
  p

let alloc_float_zeros t n = Memory.alloc t.mem n ~init:(Value.Float 0.0)

(** Deterministic-replay hooks: the simulator is fully deterministic, so a
    (program, workload, config) triple always produces the same memory
    image. [buffer_count] and [dump_memory] let a checker snapshot the
    buffers a driver allocated (ids are dense, in allocation order) and
    compare them bit-for-bit across compiled variants of the same
    program — see {e lib/difftest}. *)

let buffer_count t = Memory.buffer_count t.mem
let dump_memory t ~first = Memory.dump t.mem ~first

let read_ints t p n = Memory.read_ints t.mem p n
let read_floats t p n = Memory.read_floats t.mem p n
let write_ints t p a = Memory.write_ints t.mem p a
let write_floats t p a = Memory.write_floats t.mem p a
let free t p = Memory.free t.mem p

(** {1 Kernel launch} *)

(** [launch t ~kernel ~grid ~block ~args] issues a host-side launch,
    asynchronously (as in CUDA: work runs at the next {!sync}). Untagged
    kernel time is attributed to parent work; pass [~role:`Child] for
    kernels that represent child work launched from the host. *)
let launch ?(role = `Parent) t ~kernel ~(grid : dim3) ~(block : dim3)
    ~(args : Value.t list) =
  let stream = Sched.default_stream t.sched in
  let cf = Sched.resolve_kernel stream kernel in
  let auto =
    match List.assoc_opt kernel t.auto_params with
    | None -> []
    | Some specs ->
        List.map
          (fun ap ->
            let n = ap.ap_elems ~grid ~block in
            Value.Ptr (Memory.alloc t.mem n ~init:(Value.Int 0)))
          specs
  in
  let args = args @ auto in
  let expected = cf.Bytecode.bf_nparams in
  if List.length args <> expected then
    Value.error
      "launch of %S: expected %d arguments (%d user + %d auto), got %d user"
      kernel expected
      (expected - List.length auto)
      (List.length auto)
      (List.length args - List.length auto);
  let issue = t.sched.clock in
  let ready = Sched.process_host_launch t.sched stream ~issue in
  let default_idx =
    match role with
    | `Parent -> Metrics.tag_parent
    | `Child -> Metrics.tag_child
  in
  Sched.launch_grid t.sched stream ~issue ~from_host:true ~kernel:cf ~grid
    ~block ~args ~ready ~default_idx

(** [sync t] drains all pending work and returns the simulated clock. *)
let sync t = Sched.run_to_idle t.sched

(** Parallel-dispatch occupancy: (batches of >= 2 blocks run concurrently,
    blocks executed in them). Both zero unless [Config.block_jobs] > 1.
    Host-side accounting only; simulated results are unaffected. *)
let par_stats t = (t.sched.Sched.par_batches, t.sched.Sched.par_batch_blocks)

(** Current simulated time (cycles since device creation). *)
let time t = t.sched.clock

(** Execution tracing (see {!Gpusim.Trace}). *)

let enable_trace t = Trace.enable t.sched.trace
let trace_events t = Trace.events t.sched.trace
let clear_trace t = Trace.clear t.sched.trace

(** [elapsed t f] runs [f ()] (typically launches plus a sync) and returns
    the simulated cycles it took. *)
let elapsed t f =
  let before = time t in
  f ();
  let (_ : float) = sync t in
  time t -. before
