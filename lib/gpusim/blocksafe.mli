(** Cross-block independence analysis for parallel block dispatch.

    Decides whether distinct blocks of a kernel's grid can execute
    concurrently with results bit-identical to sequential execution. The
    analysis classifies every pointer parameter into one of three usage
    modes; anything it cannot prove makes the kernel fall back to serial
    dispatch — unprovable never means wrong, only slow. At dispatch the
    scheduler adds one dynamic rule over the concrete buffers: a buffer
    may be shared within a batch only by uses of the same mode, never by
    an [Owned] use (plus 1-D dims where required). *)

(** How a pointer parameter is used by the kernel. *)
type mode =
  | Read_only  (** Never written through (also: non-pointer parameters). *)
  | Owned of int
      (** Every access (load, store, atomic) lands in the accessing
          thread's private window [{stride*gtid + d | 0 <= d < stride}],
          where [gtid = blockIdx.x*blockDim.x + threadIdx.x]. Requires 1-D
          dims at dispatch for [gtid] injectivity. *)
  | Reduce
      (** Only discarded-result commutative integer atomics
          ([atomicAdd]/[Sub]/[Min]/[Max] on [int*]): exact
          order-independent reductions. *)

type summary = {
  bs_safe : bool;
  bs_reason : string;  (** Why not, when [not bs_safe]; [""] otherwise. *)
  bs_modes : mode array;  (** Per-parameter; meaningful when [bs_safe]. *)
  bs_needs_1d : bool;
      (** Safety relies on [gtid] injectivity (any [Owned] parameter): the
          dispatcher must check grid/block are 1-D. *)
}

(** [analyze prog f] proves (or declines to prove) cross-block independence
    of kernel [f]. Total: never raises; failures come back as
    [{ bs_safe = false; bs_reason; _ }]. *)
val analyze : Minicu.Ast.program -> Minicu.Ast.func -> summary
