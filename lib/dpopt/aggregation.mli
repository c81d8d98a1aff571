(** The aggregation transformation (paper Section V, Fig. 7): combine the
    child grids launched by a group of parent threads into one aggregated
    grid, at warp, block, multi-block (the paper's new granularity), or
    grid granularity.

    The pass generates, per launch site:
    - an aggregated child kernel [<child>_agg] whose blocks binary-search
      the scanned grid-dimension array for their original parent and reload
      its arguments and configuration (disaggregation logic);
    - capture code replacing the launch, which assigns the parent an index
      and stores its arguments/configuration into runtime-allocated buffers
      appended to the parent's signature;
    - a block-uniform epilogue electing one launcher per group (thread 0,
      first participating lane, last finished block, or — at grid
      granularity — a host followup executed when the parent grid drains).

    Restriction: only the x dimension is aggregated (all of the paper's
    evaluation kernels are 1-D), launches must not sit in loops, and the
    parent must not return early (see {!Eligibility.aggregation_site}). *)

type granularity = Warp | Block | Multi_block of int | Grid

val pp_granularity : Format.formatter -> granularity -> unit

(** [granularity_of_string s] parses a command-line granularity:
    [warp], [block], [grid], [multiblock:N] or [multi-block:N] with
    [N >= 1], case-insensitively. The error names the valid forms. *)
val granularity_of_string :
  string -> (granularity, [> `Msg of string ]) result

type options = {
  granularity : granularity;
  agg_threshold : int option;
      (** Section V-B: minimum participating parents per group for the
          aggregated launch to be worthwhile; below it, each parent launches
          its child directly. Warp and block granularity only. *)
}

val default_options : options

(** A runtime-allocated trailing parameter appended to a transformed parent
    kernel; sized from the actual launch configuration. *)
type auto_param = {
  ap_name : string;
  ap_elems : grid_blocks:int -> block_threads:int -> int;
}

type site_report = {
  sr_parent : string;
  sr_child : string;
  sr_transformed : bool;
  sr_reason : string;
}

type result = {
  prog : Minicu.Ast.program;
  auto_params : (string * auto_param list) list;
      (** Parent kernel name -> trailing buffers, in signature order. *)
  reports : site_report list;
}

(** [transform ?opts prog] aggregates every eligible launch site. Default
    options: block granularity, no aggregation threshold. *)
val transform : ?opts:options -> Minicu.Ast.program -> result
