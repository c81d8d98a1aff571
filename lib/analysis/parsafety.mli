(** Per-kernel parallel-dispatch safety report.

    Surfaces what the scheduler's {!Gpusim.Blocksafe} analysis concluded
    for every [__global__] kernel of a program: whether its blocks can be
    dispatched concurrently with bit-identical results, and why not when
    they cannot. [dpoptc --report] prints this so users can see, before
    any simulation, which kernels will run batched and which fall back to
    serial dispatch. *)

type entry = {
  ps_kernel : string;  (** Kernel name. *)
  ps_params : string list;
      (** Parameter names, aligned with [ps_summary.bs_modes]. *)
  ps_summary : Gpusim.Blocksafe.summary;
}

(** [report prog] — one entry per [__global__] kernel, in program order. *)
val report : Minicu.Ast.program -> entry list

(** Renders one line per kernel:
    ["parsafety bfs_child: parallel-safe (out: owned x1, frontier: read-only; needs 1-D dims)"]
    or ["parsafety bfs_parent: serial (launches child grids)"]. *)
val pp : Format.formatter -> entry list -> unit
