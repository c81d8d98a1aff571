(** Reproduction of the paper's evaluation tables and figures as text
    output. Each function prints a table shaped like the paper's plot and
    returns its data for tests and CSV export.

    The [figN] functions accept [?pool]: when given, per-spec work
    (baseline runs plus tuning) fans out across worker domains, and all
    printing happens afterwards from the ordered results, so output is
    bit-identical at any parallelism. *)

(** Table I: benchmark/dataset inventory with shape statistics. *)
val table1 : ?size:Benchmarks.Registry.size -> unit -> unit

type fig9_row = {
  bench : string;
  dataset : string;
  cdp_time : float;
  no_cdp_time : float;
  combos : (string * float * Variant.params) list;
      (** (combo label, best tuned time, best parameters). *)
}

(** One Fig. 9 row: baseline runs plus a tuned measurement per
    optimization combination. [beyond_max] extends the threshold grid past
    the largest launch (the Fig. 12 methodology). *)
val fig9_row :
  ?cfg:Gpusim.Config.t ->
  ?beyond_max:bool ->
  Benchmarks.Bench_common.spec ->
  fig9_row

val combo_time : fig9_row -> string -> float

(** Fig. 9: the whole table plus the headline geomeans (returns
    [(label, value)] pairs). *)
val fig9 :
  ?cfg:Gpusim.Config.t ->
  ?pool:Pool.t ->
  ?size:Benchmarks.Registry.size ->
  unit ->
  fig9_row list * (string * float) list

type fig10_cell = {
  variant : string;
  parent : float;
  child : float;
  agg : float;
  launch : float;
  disagg : float;
}

(** One spec's Fig. 10 cells: CDP+A, CDP+T+A and CDP+T+C+A, each tuned
    ({!Tuning.tune}) and broken down from its best run. These are tunes
    {!fig9_row} also makes, so after it on the same spec value and
    config they simulate nothing ({!Experiment.run}). *)
val fig10_cells :
  ?cfg:Gpusim.Config.t -> Benchmarks.Bench_common.spec -> fig10_cell list

(** Fig. 10: execution-time breakdown for CDP+A, CDP+T+A, CDP+T+C+A. *)
val fig10 :
  ?cfg:Gpusim.Config.t ->
  ?pool:Pool.t ->
  ?size:Benchmarks.Registry.size ->
  unit ->
  (string * string * fig10_cell list) list

(** Fig. 11: exhaustive threshold × granularity sweep, one dataset per
    benchmark. *)
val fig11 :
  ?cfg:Gpusim.Config.t ->
  ?pool:Pool.t ->
  ?size:Benchmarks.Registry.size ->
  unit ->
  (string
  * string
  * float
  * (int * (Dpopt.Aggregation.granularity option * float) list) list)
  list

(** Fig. 12: the graph benchmarks on road graphs; returns the rows and the
    CDP+T+C+A-over-No-CDP geomean (expected below 1). *)
val fig12 :
  ?cfg:Gpusim.Config.t ->
  ?pool:Pool.t ->
  ?size:Benchmarks.Registry.size ->
  unit ->
  fig9_row list * float

(** Section VIII-C: fixed threshold 128 vs tuned; returns both geomeans of
    CDP+T+C+A over CDP+C+A. *)
val fixed128 :
  ?cfg:Gpusim.Config.t ->
  ?pool:Pool.t ->
  ?size:Benchmarks.Registry.size ->
  unit ->
  float * float
