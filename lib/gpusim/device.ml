(** Host-side device API — the MiniCU analogue of the CUDA runtime: one
    program on the default stream of a {!Sched}. A typical driver:

    {[
      let dev = Device.create () in
      Device.load_program dev r.prog ~auto_params:r.auto_params;
      let d_data = Device.alloc_ints dev data in
      Device.launch dev ~kernel:"parent" ~grid:(n_blocks, 1, 1)
        ~block:(256, 1, 1) ~args:[ Ptr d_data; Int n ];
      let elapsed = Device.sync dev in
      let result = Device.read_ints dev d_data n in
      ...
    ]} *)

type dim3 = int * int * int

type t = { cfg : Config.t; mem : Memory.t; metrics : Metrics.t; sched : Sched.t }

let create ?(cfg = Config.default) () =
  let mem = Memory.create () in
  let metrics = Metrics.create () in
  { cfg; mem; metrics; sched = Sched.create cfg mem metrics }

let metrics t = t.metrics
let memory t = t.mem
let config t = t.cfg

(** [load_program t prog ~auto_params] typechecks [prog] and lowers it
    onto the device's default stream ({!Sched.load_stream}).
    [auto_params] maps kernel names to the runtime-allocated trailing
    parameters their transformed signatures expect. *)
let load_program ?auto_params t (prog : Minicu.Ast.program) =
  Sched.load_stream ?auto_params t.sched (Sched.default_stream t.sched) prog

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

(** [launch t ~kernel ~grid ~block ~args] issues a host-side launch on the
    default stream ({!Sched.host_launch}), asynchronously (as in CUDA: work
    runs at the next {!sync}). *)
let launch ?role t ~kernel ~grid ~block ~args =
  Sched.host_launch ?role t.sched (Sched.default_stream t.sched) ~kernel ~grid
    ~block ~args

(** [sync t] drains all pending work and returns the simulated clock. *)
let sync t = Sched.run_to_idle t.sched

(** Current simulated time (cycles since device creation). *)
let time t = Sched.clock t.sched

(** Execution tracing (see {!Gpusim.Trace}). *)

let enable_trace t = Trace.enable (Sched.trace t.sched)
let trace_events t = Trace.events (Sched.trace t.sched)
let clear_trace t = Trace.clear (Sched.trace t.sched)

(** [elapsed t f] runs [f ()] (typically launches plus a sync) and returns
    the simulated cycles it took. *)
let elapsed t f =
  let before = time t in
  f ();
  let (_ : float) = sync t in
  time t -. before
