(** Workload profiles: the dataset-side input to the cost model — one
    child-grid size per parent work item over a whole application run, plus
    the host driver's launch structure. *)

(** A benchmark spec's workload is a profile. *)
type t = Benchmarks.Bench_common.workload = {
  child_sizes : int array;
      (** Per parent work item, in processing order; 0 = no nested work. *)
  rounds : int;  (** Host launches of the parent kernel over the run. *)
  parent_block : int;  (** Threads per block of those host launches. *)
}

val n_items : t -> int
val total_child_threads : t -> int
val mean_size : t -> float

(** Reproducible synthetic profile for [dpoptc --predict]: [items] parent
    items with mean child size [mean]; [skew] in [0, 1] interpolates from
    uniform-ish to heavy-tailed. *)
val synthetic :
  ?seed:int ->
  ?rounds:int ->
  ?parent_block:int ->
  items:int ->
  mean:int ->
  ?skew:float ->
  unit ->
  t
