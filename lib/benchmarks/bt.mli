(** Bezier Tessellation (CUDA samples' cdpBezierTessellation, Table I).
    Per-line curvature determines the child grid size; the parent uses
    device-side [malloc] for the output vertices. *)

val spec : dataset:Workloads.Bezier.t -> Bench_common.spec
