(** Run one (benchmark, dataset, variant) cell and snapshot its results. *)

type measurement = {
  bench : string;
  dataset : string;
  variant : string;
  time : float;  (** Simulated cycles for the whole application run. *)
  fingerprint : int;
  snap : Gpusim.Metrics.t;
      (** The metrics of the run's device, which is discarded afterwards:
          nothing mutates the record after the run. *)
  sampled : bool;
      (** Grid/launch sampling actually triggered: [time] is an
          extrapolation and [fingerprint] was not validated. *)
  rel_std_error : float;
      (** Relative standard error of the extrapolated compute total
          ({!Gpusim.Metrics.rel_std_error}); [0.0] on exact runs. *)
  extrapolation : Costmodel.Extrapolate.report option;
      (** Full extrapolation report (CI bounds, coverage); [Some] exactly
          when [sampled]. *)
}

exception Validation_failure of string

(** Sampling knobs appropriate for a registry size: the defaults at
    small/medium; much lower block/launch fractions at large, where grids
    reach 100k+ blocks and default coverage would defeat the point of
    sampling. *)
val sampling_for_size : Benchmarks.Registry.size -> Gpusim.Config.sampling

(** [run ?cfg spec variant] executes the benchmark, once per
    process for each (spec, variant, config): the process keeps the raw
    result of {!Benchmarks.Bench_common.run_variant} (fingerprint,
    simulated cycles, metrics) and answers a repeated call from it.

    - {b Key.} The spec value by physical identity ([==]), the variant,
      and the effective config ([None] counts as
      {!Gpusim.Config.default}). The spec's name and dataset do not
      identify it: two specs may share them and run different data (the
      ablation's 24×24 ROAD and the small tier's 28×28 ROAD), and a
      [{ spec with … }] copy is a different key from its original.
      {!Benchmarks.Registry} returns one spec value per (size, benchmark,
      dataset), so figures that look up the same pairs share runs.
    - {b Validation.} Every call, a reused run included, checks the output fingerprint against the
      calling spec's [reference ()]. Validation is skipped when [cfg]
      enables {!Gpusim.Config.sampling} — a sampled run's outputs are
      estimates by construction.
    - {b Lifetime and memory.} Entries live as long as the process, and
      nothing turns the memo off. There is one per distinct key run,
      about a hundred words each (its metrics record and its key), and
      each keeps its spec alive; a run that raised is not stored. A
      check that needs a fresh simulation calls
      {!Benchmarks.Bench_common.run_variant}.
    - {b Domains.} One mutex guards the table; simulations run outside
      it. Two domains that miss on one key at once both simulate and get
      equal results, so output is byte-identical at any parallelism.

    @raise Validation_failure on mismatch — transformed code must be
    correct, not just fast. *)
val run :
  ?cfg:Gpusim.Config.t ->
  Benchmarks.Bench_common.spec ->
  Variant.t ->
  measurement

(** Runs this process has simulated so far, and runs it answered from
    earlier ones, over every {!run} call. *)
val simulated : unit -> int

val reused : unit -> int

(** One cell of a sweep: an optional simulator-config override plus the
    (benchmark, variant) pair to run under it. *)
type cell = {
  cell_cfg : Gpusim.Config.t option;
  cell_spec : Benchmarks.Bench_common.spec;
  cell_variant : Variant.t;
}

val cell :
  ?cfg:Gpusim.Config.t -> Benchmarks.Bench_common.spec -> Variant.t -> cell

(** [run_cells ?pool cells] evaluates every cell — on [pool]
    when given, sequentially otherwise — returning measurements in the
    {e input} order (independent of completion order) paired with each
    cell's wall-clock seconds. Each cell goes through {!run}, so a cell
    that repeats an earlier one reuses its run; a simulated cell builds
    its own device/memory/metrics, so the results are identical whatever
    the parallelism. All sweep consumers route through here. [?progress]
    is stepped once per finished cell (from whichever domain ran it). *)
val run_cells :
  ?pool:Pool.t ->
  ?progress:Progress.t ->
  cell list ->
  (measurement * float) list
