(** Survey Propagation (message passing on a CNF factor graph, Table I).
    Double-buffered float surveys: each cell is written by exactly one
    thread, so every variant is bit-identical. *)

type arrays = {
  o_row : int array;
  o_cidx : int array;
  o_slot : int array;
  c_row : int array;
  n_cells : int;
}

val build_arrays : Workloads.Sat.t -> arrays
val spec : formula:Workloads.Sat.t -> Bench_common.spec
