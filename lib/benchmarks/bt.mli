(** Bezier Tessellation (CUDA samples' cdpBezierTessellation, Table I).
    Per-line curvature determines the child grid size; the parent uses
    device-side [malloc] for the output vertices. *)

val child_block : int
val cdp_src : string
val no_cdp_src : string
val reference : Workloads.Bezier.t -> unit -> int
val spec : dataset:Workloads.Bezier.t -> Bench_common.spec
