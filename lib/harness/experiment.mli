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

(** [run ?cfg ?validate spec variant] executes the benchmark. With
    [~validate:true] (default) the output fingerprint is checked against
    the pure-OCaml reference. Validation is skipped when [cfg] enables
    {!Gpusim.Config.sampling} — a sampled run's outputs are estimates by
    construction.
    @raise Validation_failure on mismatch — transformed code must be
    correct, not just fast. *)
val run :
  ?cfg:Gpusim.Config.t ->
  ?validate:bool ->
  Benchmarks.Bench_common.spec ->
  Variant.t ->
  measurement

(** One cell of a sweep: an optional simulator-config override plus the
    (benchmark, variant) pair to run under it. *)
type cell = {
  cell_cfg : Gpusim.Config.t option;
  cell_spec : Benchmarks.Bench_common.spec;
  cell_variant : Variant.t;
}

val cell :
  ?cfg:Gpusim.Config.t -> Benchmarks.Bench_common.spec -> Variant.t -> cell

(** [run_cells ?pool ?validate cells] evaluates every cell — on [pool]
    when given, sequentially otherwise — returning measurements in the
    {e input} order (independent of completion order) paired with each
    run's wall-clock seconds. Every cell builds its own
    device/memory/metrics, so the results are identical whatever the
    parallelism; all sweep consumers route through here. [?progress] is
    stepped once per finished cell (from whichever domain ran it). *)
val run_cells :
  ?pool:Pool.t ->
  ?validate:bool ->
  ?progress:Progress.t ->
  cell list ->
  (measurement * float) list
