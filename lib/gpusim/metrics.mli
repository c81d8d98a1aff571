(** Execution metrics collected by the simulator, including the per-category
    compute-time attribution behind the paper's Fig. 10 breakdown.

    Plain mutable records, not thread-safe: each stream of a {!Device.t}
    owns one, mutated from the domain driving the device (see the
    domain-safety note in {!Device}). A block's cost reaches its stream's
    record once, when {!Sched} commits the block at its sampling weight;
    the VM and {!Racecheck} write what a block observes as it runs
    (serialized launches, out-of-bounds accesses, races) unweighted, so a
    block that raises leaves exactly those. *)

(** {1 Tag indices} (dense encoding of {!Minicu.Ast.tag}) *)

val tag_default : int
val tag_parent : int
val tag_child : int
val tag_agg : int
val tag_disagg : int
val num_tags : int
val index_of_tag : Minicu.Ast.tag -> int

type breakdown = {
  mutable parent_cycles : float;
  mutable child_cycles : float;
  mutable agg_cycles : float;
  mutable disagg_cycles : float;
  mutable launch_cycles : float;
      (** Launch-subsystem time: queueing plus service plus latency summed
          over every grid launch. *)
}

(** Accounting for stratified grid/launch sampling ({!Sched}): how much was
    skipped-and-extrapolated, and the accumulated stratified variance behind
    {!rel_std_error}. All zero on exact runs. *)
type sampling_stats = {
  mutable sampled_grids : int;
  mutable sampled_blocks : int;  (** Blocks simulated on sampled grids. *)
  mutable skipped_blocks : int;  (** Blocks represented only by weights. *)
  mutable sampled_launches : int;
  mutable skipped_launches : int;
  mutable est_total : float;  (** Extrapolated compute total estimated. *)
  mutable est_variance : float;  (** Stratified variance of that total. *)
}

type t = {
  breakdown : breakdown;
  sampling : sampling_stats;
  mutable makespan : float;
  mutable grids_launched : int;
  mutable device_launches : int;
  mutable host_launches : int;
  mutable blocks_executed : int;
  mutable threads_executed : int;
  mutable max_pending_launches : int;
  mutable serialized_launches : int;
      (** Child grids serialized in their parent thread by thresholding. *)
  mutable races_detected : int;
      (** Intra-block data-race conflicts found by {!Racecheck}; always 0
          unless [Config.check] is set. *)
  mutable oob_detected : int;
      (** Out-of-bounds accesses observed under [Config.check]. *)
  mutable race_reports : string list;
      (** Rendered race reports, deduplicated per address and capped. *)
}

val create : unit -> t

(** Whether any sampling (block or launch) actually triggered. *)
val sampled : t -> bool

(** Relative standard error of the extrapolated compute total
    ([sqrt(Var)/total]; [0.0] on exact runs). *)
val rel_std_error : t -> float

val pp : Format.formatter -> t -> unit
