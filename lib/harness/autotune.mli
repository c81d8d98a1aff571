(** A small derivative-free autotuner over the optimization parameters
    (the paper cites OpenTuner in Section VIII-C; this is a self-contained
    stand-in): random sampling, then greedy neighborhood descent, under a
    simulator-run budget. Deterministic given [seed]; every evaluation
    validates the benchmark output.

    With [~surrogate] the search scores the whole parameter grid with the
    analytical cost model — no simulator runs — then spends at most half
    the budget on the simulator: a frontier of best-predicted points with
    distinct thresholds plus greedy descent from the frontier's winner. *)

type space = {
  thresholds : int list;
  cfactors : int list;
  granularities : Dpopt.Aggregation.granularity list;
}

val default_space : Benchmarks.Bench_common.spec -> space

type surrogate_report = {
  sr_grid : int;  (** Parameter points scored by the model. *)
  sr_simulated : int;  (** Simulator runs spent (frontier + descent). *)
  sr_saved_vs_budget : int;  (** [budget - sr_simulated], floored at 0. *)
  sr_best_rank : int;
      (** Predicted rank of the simulated winner (0 = the model's own top
          choice). *)
  sr_predicted : (Variant.params * float) list;
      (** Full predicted ranking, ascending by predicted cycles. *)
}

type outcome = {
  best_params : Variant.params;
  best_time : float;
  runs_used : int;
      (** Distinct experiments this search evaluated. Each went through
          {!Experiment.run}, whose process-wide memo may have answered it
          from an earlier run instead of the simulator. *)
  cache_hits : int;
      (** Evaluations of an experiment this search had already evaluated
          (the search's own params-keyed table). *)
  trace : (Variant.params * float) list;
      (** The distinct experiments, in evaluation order. *)
  surrogate : surrogate_report option;  (** Present iff [~surrogate]. *)
}

(** Knobs of passes the combo disables are pinned to
    {!Variant.default_params} — such points denote the same experiment and
    share one memo entry. Knobs a pass ignores at the chosen setting are
    pinned too: [agg_threshold] only affects warp/block aggregation
    codegen, so at multi-block/grid granularity it is normalized to
    [None] (params differing only there yield byte-identical programs). *)
val normalize : Variant.combo -> Variant.params -> Variant.params

(** Every distinct experiment of the space for this combo (disabled knobs
    pinned to defaults), in deterministic grid order. *)
val enumerate_params : Variant.combo -> space -> Variant.params list

(** [search ?budget ?seed ?space ?surrogate spec combo] — at most
    [budget] distinct experiments (default 12). With [~surrogate], scores the
    whole grid with the model, then spends at most [budget / 2] simulator
    runs — a frontier of the [max 1 (budget / 3)]
    best-predicted points with distinct thresholds, plus greedy descent
    from the frontier's winner; the outcome then carries a
    {!surrogate_report}. *)
val search :
  ?budget:int ->
  ?seed:int ->
  ?space:space ->
  ?surrogate:Costmodel.Model.coeffs ->
  Benchmarks.Bench_common.spec ->
  Variant.combo ->
  outcome
