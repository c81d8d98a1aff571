(** The code-version axes of the paper's evaluation (Section VII). *)

(** A code version: which source runs, and through which passes. *)
type t = Benchmarks.Bench_common.variant =
  | No_cdp  (** The original version without dynamic parallelism. *)
  | Cdp of Dpopt.Pipeline.options  (** CDP run through the compiler. *)

val label : t -> string

(** Which of T/C/A a combination enables (Fig. 9's x-axis). *)
type combo = { t : bool; c : bool; a : bool }

val combo_label : combo -> string

(** The eight combinations, in Fig. 9 order (plain CDP first). *)
val all_combos : combo list

(** Tuning parameters for one concrete run. *)
type params = {
  threshold : int;
  cfactor : int;
  granularity : Dpopt.Aggregation.granularity;
  agg_threshold : int option;
}

val default_params : params
val pp_params : Format.formatter -> params -> unit

(** Instantiate a combination: only enabled passes receive parameters. *)
val instantiate : combo -> params -> t

(** All eight combinations instantiated at [params], with their labels, in
    {!all_combos} order (plain ["CDP"] first). *)
val power_set : ?params:params -> unit -> (string * t) list
