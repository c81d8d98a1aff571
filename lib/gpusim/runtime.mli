(** Runtime pieces of the simulator's execution engine, shared by the
    lowering ({!Bytecode}), the VM ({!Vm}), the scheduler ({!Sched}) and
    the analytical cost model ({e lib/costmodel}). This module is the
    reference for MiniCU's dynamic operator and warp-collective semantics
    and for the static per-expression cost formulas; the native backend
    ({e lib/native}) mirrors it. *)

type warp_op = W_scan_excl | W_sum | W_max | W_bcast of int | W_sync

type warp_req = { wop : warp_op; warg : Value.t }

(** A launch issued during block execution, to be scheduled by {!Sched}. *)
type launch_req = {
  lr_kernel : string;
  lr_grid : int * int * int;
  lr_block : int * int * int;
  lr_args : Value.t list;
  lr_issue_cost : float;
      (** The launching thread's accumulated cost at issue; the scheduler
          turns it into an issue-time offset within the block. *)
  lr_from_host : bool;
}

(** Per-block execution context. *)
type bctx = {
  mem : Memory.t;
  cfg : Config.t;
  metrics : Metrics.t;
  bidx : int * int * int;
  bdim : int * int * int;
  gdim : int * int * int;
  shared : (int, Value.ptr) Hashtbl.t;
  mutable launches : launch_req list;
  is_host_ctx : bool;
  racecheck : Racecheck.t option;
      (** Per-block dynamic race detector; [Some] only when [Config.check]
          is set and this is a device block. *)
}

(** What one executed block hands the scheduler. *)
type result = {
  r_launches : launch_req list;  (** In issue order. *)
  r_compute_cycles : float;
      (** Parallelism-scaled compute cycles (block duration minus the
          scheduling overhead). *)
  r_tag_cycles : float array;  (** Per-tag scaled cycles. *)
  r_serialized : int;
      (** Serialized launches the block made; the VM counted each one into
          the block context's metrics as it ran, unweighted. *)
}

(** The one launch-shape rule, applied by the VM to launches from kernels
    and host followups and by {!Sched.host_launch} to host launches: each
    grid and block component is at least 1, and a block has at most
    [cfg.max_threads_per_block] threads.
    @raise Value.Runtime_error naming [kernel] and the offending shape. *)
val check_launch_shape :
  Config.t ->
  kernel:string ->
  grid:int * int * int ->
  block:int * int * int ->
  unit

(** Dynamic semantics of a binary operator on runtime values (C-style:
    float wins, pointers admit arithmetic).
    @raise Value.Runtime_error on division by zero or type mismatches. *)
val eval_binop : Minicu.Ast.binop -> Value.t -> Value.t -> Value.t

(** Evaluate one warp collective over the suspended live lanes; input and
    output are (lane index, request/result) pairs in lane order.
    @raise Value.Runtime_error on divergent collectives or a broadcast
    from a dead lane. *)
val eval_warp_op : (int * warp_req) list -> (int * Value.t) list

(** Static cost (cycles) of evaluating [e] once, assuming full evaluation:
    short-circuit and ternary operators are charged for both sides. *)
val expr_cost : Config.t -> Minicu.Ast.expr -> int

(** Recognizes generated thresholding serial entry points ("..._serial",
    "..._serial_<n>"), whose calls count into
    {!Metrics.t.serialized_launches}. *)
val has_serial_suffix : string -> bool
