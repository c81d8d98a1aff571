(** Execution metrics collected by the simulator.

    Compute time is attributed to the categories of the paper's Figure 10
    breakdown via the statement tags that the transformation passes attach
    (see {!Minicu.Ast.tag}); launch overhead is measured by the launch
    subsystem in {!Sched}. *)

(* Tag indices used by the compiled code; index 0 is "default" and is
   resolved per-grid to parent or child at execution time. *)
let tag_default = 0
let tag_parent = 1
let tag_child = 2
let tag_agg = 3
let tag_disagg = 4
let num_tags = 5

let index_of_tag : Minicu.Ast.tag -> int = function
  | Tag_none -> tag_default
  | Tag_parent -> tag_parent
  | Tag_child -> tag_child
  | Tag_agg -> tag_agg
  | Tag_disagg -> tag_disagg

type breakdown = {
  mutable parent_cycles : float;  (** Parent work (per-warp, parallelism-scaled). *)
  mutable child_cycles : float;  (** Child work. *)
  mutable agg_cycles : float;  (** Aggregation logic (Fig. 7, parent side). *)
  mutable disagg_cycles : float;  (** Disaggregation logic (Fig. 7, child side). *)
  mutable launch_cycles : float;
      (** Launch-subsystem busy time: queueing plus service for every grid
          launch (the congestion component). *)
}

(* Accounting for stratified grid/launch sampling (see Sched): how much was
   skipped-and-extrapolated, and the accumulated stratified variance from
   which the reported error bound derives. *)
type sampling_stats = {
  mutable sampled_grids : int;
  mutable sampled_blocks : int;
  mutable skipped_blocks : int;
  mutable sampled_launches : int;
  mutable skipped_launches : int;
  mutable est_total : float;
  mutable est_variance : float;
}

type t = {
  breakdown : breakdown;
  sampling : sampling_stats;
  mutable makespan : float;  (** Simulated wall-clock: device-idle time. *)
  mutable grids_launched : int;
  mutable device_launches : int;
  mutable host_launches : int;
  mutable blocks_executed : int;
  mutable threads_executed : int;
  mutable max_pending_launches : int;
  mutable serialized_launches : int;
      (** Child grids serialized in their parent thread by thresholding.
          Incremented by the [child_serial] device functions via a counter
          builtin; 0 when thresholding is off. *)
  mutable races_detected : int;
      (** Intra-block data-race conflicts found by {!Racecheck}; always 0
          unless [Config.check] is set. *)
  mutable oob_detected : int;
      (** Out-of-bounds accesses observed under [Config.check] before the
          run aborted. *)
  mutable race_reports : string list;
      (** Rendered race reports, deduplicated per address and capped. *)
}

let create () =
  {
    breakdown =
      {
        parent_cycles = 0.0;
        child_cycles = 0.0;
        agg_cycles = 0.0;
        disagg_cycles = 0.0;
        launch_cycles = 0.0;
      };
    sampling =
      {
        sampled_grids = 0;
        sampled_blocks = 0;
        skipped_blocks = 0;
        sampled_launches = 0;
        skipped_launches = 0;
        est_total = 0.0;
        est_variance = 0.0;
      };
    makespan = 0.0;
    grids_launched = 0;
    device_launches = 0;
    host_launches = 0;
    blocks_executed = 0;
    threads_executed = 0;
    max_pending_launches = 0;
    serialized_launches = 0;
    races_detected = 0;
    oob_detected = 0;
    race_reports = [];
  }

(** [charge m idx cycles] adds parallelism-scaled compute cycles to the
    breakdown category [idx] (one of the [tag_*] indices; never
    [tag_default], which callers must resolve first). *)
let charge m idx cycles =
  let b = m.breakdown in
  if idx = tag_parent then b.parent_cycles <- b.parent_cycles +. cycles
  else if idx = tag_child then b.child_cycles <- b.child_cycles +. cycles
  else if idx = tag_agg then b.agg_cycles <- b.agg_cycles +. cycles
  else if idx = tag_disagg then b.disagg_cycles <- b.disagg_cycles +. cycles
  else invalid_arg "Metrics.charge: unresolved default tag"

(** [merge ~into ~weight from] folds block-level metrics accumulated in a
    private [from] (one block executed into a fresh [create ()]) into the
    device's shared record, scaled by the block's sampling weight.

    At [weight = 1.0] this is {e bit-identical} to having executed the block
    directly against [into]: the VM charges each breakdown category at
    most once per block with the category starting at [0.0], and
    [x +. (0.0 +. v) = x +. v] and [x +. 0.0 = x] exactly (the operands are
    never [-0.0]). That identity is what lets every block execute into a
    private record and still leave exact runs byte-identical to direct
    accumulation. *)
let merge ~into ~weight (from : t) =
  let b = into.breakdown and f = from.breakdown in
  if weight = 1.0 then begin
    b.parent_cycles <- b.parent_cycles +. f.parent_cycles;
    b.child_cycles <- b.child_cycles +. f.child_cycles;
    b.agg_cycles <- b.agg_cycles +. f.agg_cycles;
    b.disagg_cycles <- b.disagg_cycles +. f.disagg_cycles;
    b.launch_cycles <- b.launch_cycles +. f.launch_cycles;
    into.blocks_executed <- into.blocks_executed + from.blocks_executed;
    into.threads_executed <- into.threads_executed + from.threads_executed;
    into.serialized_launches <-
      into.serialized_launches + from.serialized_launches
  end
  else begin
    (* Weighted extrapolation: each simulated block stands for [weight]
       blocks of its stratum. Counters round to stay integral. *)
    let scale x = int_of_float (Float.round (weight *. float_of_int x)) in
    b.parent_cycles <- b.parent_cycles +. (weight *. f.parent_cycles);
    b.child_cycles <- b.child_cycles +. (weight *. f.child_cycles);
    b.agg_cycles <- b.agg_cycles +. (weight *. f.agg_cycles);
    b.disagg_cycles <- b.disagg_cycles +. (weight *. f.disagg_cycles);
    b.launch_cycles <- b.launch_cycles +. (weight *. f.launch_cycles);
    into.blocks_executed <- into.blocks_executed + scale from.blocks_executed;
    into.threads_executed <-
      into.threads_executed + scale from.threads_executed;
    into.serialized_launches <-
      into.serialized_launches + scale from.serialized_launches
  end;
  (* Sanitizer results are never scaled: they are observations, not
     estimates. *)
  into.races_detected <- into.races_detected + from.races_detected;
  into.oob_detected <- into.oob_detected + from.oob_detected;
  if from.race_reports <> [] then
    into.race_reports <- from.race_reports @ into.race_reports

(** Whether any sampling (block or launch) actually triggered. *)
let sampled m =
  m.sampling.sampled_grids > 0 || m.sampling.skipped_launches > 0

(** Relative standard error of the extrapolated compute total, from the
    accumulated stratified variance: [sqrt(Var)/total]. [0.0] when nothing
    was sampled. *)
let rel_std_error m =
  let s = m.sampling in
  if s.est_total > 0.0 && s.est_variance > 0.0 then
    sqrt s.est_variance /. s.est_total
  else 0.0

let pp ppf m =
  let b = m.breakdown in
  Fmt.pf ppf
    "@[<v>makespan        %12.0f cycles@,\
     parent work     %12.0f@,\
     child work      %12.0f@,\
     aggregation     %12.0f@,\
     disaggregation  %12.0f@,\
     launch busy     %12.0f@,\
     grids launched  %8d (device %d, host %d)@,\
     blocks          %8d  threads %d@,\
     max pending     %8d  serialized launches %d%a@]"
    m.makespan b.parent_cycles b.child_cycles b.agg_cycles b.disagg_cycles
    b.launch_cycles m.grids_launched m.device_launches m.host_launches
    m.blocks_executed m.threads_executed m.max_pending_launches
    m.serialized_launches
    (fun ppf m ->
      if m.races_detected > 0 || m.oob_detected > 0 then begin
        Fmt.pf ppf "@,races detected  %8d  out-of-bounds %d" m.races_detected
          m.oob_detected;
        List.iter (fun r -> Fmt.pf ppf "@,  %s" r) m.race_reports
      end)
    m
