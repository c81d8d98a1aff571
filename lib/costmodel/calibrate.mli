(** Calibration: fit the model's coefficients against simulator runs by
    weighted (1/y²) non-negative least squares; the checked-in result
    lives in {!Table.current}. *)

type sample = {
  s_bench : string;
  s_dataset : string;
  s_label : string;  (** Pass-combination label. *)
  s_terms : float array;
  s_measured : float;  (** Simulated cycles. *)
}

(** The standard calibration corpus for one spec (16 samples): the 8
    combinations at the default knobs plus the same at cfactor 1 / grid
    granularity. {!Table.current} is fitted on this corpus over the
    whole registry. *)
val collect_corpus :
  ?cfg:Gpusim.Config.t -> Benchmarks.Bench_common.spec -> sample list

(** Weighted non-negative least squares over the samples; returns β of
    length {!Model.n_terms}. Deterministic.
    @raise Invalid_argument on a wrong-length term vector. *)
val fit : ?iters:int -> sample list -> float array

val fit_coeffs : ?iters:int -> version:int -> sample list -> Model.coeffs

(** Model prediction for a collected sample's term vector. *)
val predict_sample : Model.coeffs -> sample -> float

(** Render a fitted table as OCaml source for [lib/costmodel/table.ml]. *)
val print_table : Format.formatter -> Model.coeffs -> unit
