(** The combined compiler framework (paper Section VI, Fig. 8): apply any
    subset of \{thresholding, coarsening, aggregation\} in the canonical
    order T → C → A. Thresholding runs before coarsening so the
    desired-thread-count extraction sees the unmangled grid expression;
    before aggregation so small grids never enter the aggregated launch;
    and coarsening runs before aggregation so the disaggregation logic sits
    outside the coarsening loop and is amortized. *)

type options = {
  thresholding : Thresholding.options option;
  coarsening : Coarsening.options option;
  aggregation : Aggregation.options option;
}

(** No passes: the plain CDP version. *)
val none : options

(** [make ?threshold ?cfactor ?granularity ?agg_threshold ()] enables each
    pass iff its parameter is given. *)
val make :
  ?threshold:int ->
  ?cfactor:int ->
  ?granularity:Aggregation.granularity ->
  ?agg_threshold:int ->
  unit ->
  options

(** ["CDP"], ["CDP+T"], ..., ["CDP+T+C+A"] — the paper's notation. *)
val label : options -> string

(** [enumerate ()] — every combination of the three passes at the given
    knob values, with its {!label}. All [2^3] subsets by default; a
    [with_*] toggle set to false pins that pass off. The all-off ["CDP"]
    combination always comes first, so the head can serve as the
    untransformed baseline. Used by the differential-testing oracle
    ([lib/difftest]) and the harness. *)
val enumerate :
  ?threshold:int ->
  ?cfactor:int ->
  ?granularity:Aggregation.granularity ->
  ?agg_threshold:int ->
  ?with_thresholding:bool ->
  ?with_coarsening:bool ->
  ?with_aggregation:bool ->
  unit ->
  (string * options) list

type result = {
  prog : Minicu.Ast.program;
  auto_params : (string * Aggregation.auto_param list) list;
  threshold_reports : Thresholding.site_report list;
  coarsen_reports : Coarsening.site_report list;
  agg_reports : Aggregation.site_report list;
}

(** {1 Cache-keyed stages}

    The pipeline decomposes into independent stages, one per enabled pass,
    each carrying a {e fingerprint} — a canonical rendering of its
    normalized knob values. A stage is a pure function of (input program,
    fingerprint), which is what makes content-addressed memoization sound:
    the compile service ({e lib/serve}) keys each stage's output on
    [digest (canonical input source) ^ fingerprint] and replays {!run} as
    a fold over the same list, byte-identical to the uncached path. *)

type pass_report =
  | Threshold_reports of Thresholding.site_report list
  | Coarsen_reports of Coarsening.site_report list
  | Agg_reports of Aggregation.site_report list

type stage_output = {
  so_prog : Minicu.Ast.program;
  so_auto_params : (string * Aggregation.auto_param list) list;
      (** Non-empty only for the aggregation stage. *)
  so_report : pass_report;
}

type stage = {
  st_name : string;  (** ["thresholding"] / ["coarsening"] / ["aggregation"]. *)
  st_fingerprint : string;
      (** Canonical normalized knob values: equal fingerprints guarantee
          [st_apply] computes the same function. *)
  st_apply : Minicu.Ast.program -> stage_output;
      (** Applies the pass; typechecks its output.
          @raise Minicu.Typecheck.Type_error on ill-formed output. *)
}

(** The enabled passes in canonical T → C → A order. *)
val stages : options -> stage list

(** Canonical normalized rendering of the whole option record (["id"] for
    {!none}): equal fingerprints run byte-identical pipelines. Ignored
    knobs — the aggregation threshold at multi-block/grid granularity,
    which warp/block codegen alone consumes — are dropped, so records
    differing only there share one fingerprint. *)
val fingerprint : options -> string

(** [fingerprint_of_stages (stages opts) = fingerprint opts], for a caller
    that already holds the stage list. *)
val fingerprint_of_stages : stage list -> string

(** [init prog] — the result of applying no stage to [prog]: [prog] with
    no reports and no auto parameters. *)
val init : Minicu.Ast.program -> result

(** [absorb r out] — [r] after one more stage: [out]'s program, and
    [out]'s reports (and auto parameters, for aggregation) in place of
    that pass's. {!run} is [List.fold_left] of [absorb] over the stages
    from [init prog], so a caller that folds cached stage outputs this way
    builds the same result. *)
val absorb : result -> stage_output -> result

(** [run ?opts prog] applies the enabled passes in canonical order,
    typechecking the input, every intermediate program, and the output.
    @raise Minicu.Typecheck.Type_error if any stage produces ill-formed
    code. *)
val run : ?opts:options -> Minicu.Ast.program -> result

(** Parse, transform, print: the [dpoptc] CLI entry point. *)
val run_source : ?opts:options -> string -> string * result
