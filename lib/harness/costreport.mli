(** The [BENCH_costmodel.json] artifact behind [runbench --sweep]: for
    every registry benchmark, the checked-in cost-model table's
    predicted-vs-measured rank correlation across the 8 pass combinations,
    plus a surrogate-guided vs. unpruned {!Autotune.search} comparison on
    the full T+C+A space — simulator runs saved and whether the
    surrogate's pick stayed within 10% of the unpruned best. All outputs
    are deterministic. *)

type bench_report = {
  cr_bench : string;
  cr_dataset : string;
  cr_spearman : float;  (** Over the 8 pass combinations. *)
  cr_kendall : float;
  cr_plain_runs : int;  (** Simulator runs of the unpruned search. *)
  cr_surrogate_runs : int;
      (** Simulator runs of the surrogate search (frontier + descent). *)
  cr_saved_pct : float;  (** 100·(plain − surrogate)/plain. *)
  cr_plain_best : float;
  cr_surrogate_best : float;
  cr_within_10pct : bool;
      (** Surrogate best_time ≤ 1.1 × unpruned best_time. *)
  cr_best_rank : int;  (** Model rank of the surrogate winner (0-based). *)
}

type t = {
  cm_table_version : int;
  cm_size : Benchmarks.Registry.size;
  cm_budget : int;
  cm_reports : bench_report list;
  cm_mean_spearman : float;
  cm_min_spearman : float;
  cm_mean_saved_pct : float;
  cm_all_within_10pct : bool;
}

(** One benchmark's report: the 8 CDP runs of the pass combinations at
    {!Variant.default_params} ({!Experiment.run}, so a sweep's runs are
    reused) for the correlation, one unpruned and one surrogate-guided
    search. *)
val report_spec : ?budget:int -> Benchmarks.Bench_common.spec -> bench_report

(** Whole registry (plus road graphs); specs fan out on [pool] when
    given. Default budget 12, matching {!Autotune.search}. *)
val collect :
  ?size:Benchmarks.Registry.size -> ?pool:Pool.t -> ?budget:int -> unit -> t

val print_table : t -> unit

(** Write the [BENCH_costmodel.json] artifact (schema
    {!Sweep.schema_version}, kind ["dpopt.costmodel"]). *)
val write_json : string -> t -> unit
