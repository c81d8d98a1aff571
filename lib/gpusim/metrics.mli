(** Execution metrics collected by the simulator, including the per-category
    compute-time attribution behind the paper's Fig. 10 breakdown.

    Plain mutable records, not thread-safe: each {!Device.t} owns one and
    mutates it from the domain driving the device (see the domain-safety
    note in {!Device}). *)

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

(** [charge m idx cycles] adds parallelism-scaled compute cycles to category
    [idx]. @raise Invalid_argument on [tag_default] (resolve it first). *)
val charge : t -> int -> float -> unit

(** [merge ~into ~weight from] folds block-level metrics accumulated in a
    private record into the device's shared one, scaled by the block's
    sampling weight. At [weight = 1.0] the result is bit-identical to
    having executed the block directly against [into], so exact runs are
    unaffected by the private record. *)
val merge : into:t -> weight:float -> t -> unit

(** Whether any sampling (block or launch) actually triggered. *)
val sampled : t -> bool

(** Relative standard error of the extrapolated compute total
    ([sqrt(Var)/total]; [0.0] on exact runs). *)
val rel_std_error : t -> float

val pp : Format.formatter -> t -> unit
