(** Feature extraction: MiniCU program + workload profile + pass options +
    device config → raw model terms. Each [t_*] field is the cycle count
    one machine mechanism would contribute if its fitted coefficient were
    exactly 1; {!Model.predict} combines them with the calibrated
    coefficients. *)

type t = {
  label : string;  (** Pass-combination label ("CDP", "CDP+T+C+A", ...). *)
  (* structural features *)
  n_items : int;  (** Parent work items in the profile. *)
  n_launch_sites : int;
  loop_depth : int;  (** Max loop nesting of the parent kernel. *)
  div_events : int;
      (** Synchronization-sensitive events under non-uniform control flow
          ({!Minicu.Divergence.events} over parent + child). *)
  div_density : float;  (** [div_events] per AST node. *)
  w_parent : float;  (** Static per-thread parent base cost, cycles. *)
  w_child : float;  (** Static per-thread child cost, cycles. *)
  (* model terms, cycles *)
  t_parent : float;  (** Parent base compute through device throughput. *)
  t_serial : float;  (** Below-threshold items serialized in the parent. *)
  t_child : float;  (** Child-grid compute through device throughput. *)
  t_entry : float;  (** [cdp_entry_cost] on parent threads. *)
  t_issue : float;  (** [launch_issue_cost] on launching lanes. *)
  t_service : float;  (** Grid-management-unit serialization. *)
  t_latency : float;  (** Per-round device-launch latency. *)
  t_host : float;  (** Host-launch latency (driver rounds + followups). *)
  t_sched : float;  (** Per-block dispatch overhead. *)
  t_capture : float;  (** Aggregation capture stores on parent lanes. *)
  t_disagg : float;  (** Disaggregation searches in aggregated children. *)
  t_div : float;  (** Divergence penalty: density × compute terms. *)
}

(** [extract ~prog ~parent_kernel ~profile ~opts ()] — features of running
    [prog]'s [parent_kernel] over [profile] after the pipeline applies
    [opts]. Pass effects are derived from the untransformed source plus
    each pass's semantics, gated by the pipeline's eligibility reports
    (a refused pass contributes nothing). [label] defaults to
    {!Dpopt.Pipeline.label}[ opts].

    The reports come from running {!Dpopt.Pipeline.run}[ ~opts prog],
    unless [pipeline] is given: then they are read from it and nothing is
    run. A caller that has already run the passes (the compile service
    folds its cached stage outputs with {!Dpopt.Pipeline.absorb}) passes
    that result, which must be [Dpopt.Pipeline.run ~opts prog]'s: the
    same [prog], untransformed, and the same [opts]. Only its reports
    are read. With it, the features are structurally equal to those
    computed without it. *)
val extract :
  ?cfg:Gpusim.Config.t ->
  prog:Minicu.Ast.program ->
  parent_kernel:string ->
  profile:Profile.t ->
  opts:Dpopt.Pipeline.options ->
  ?label:string ->
  ?pipeline:Dpopt.Pipeline.result ->
  unit ->
  t

(** Features for a benchmark spec: parses its CDP source and views its
    checked-in workload as the profile. *)
val of_spec :
  ?cfg:Gpusim.Config.t ->
  Benchmarks.Bench_common.spec ->
  opts:Dpopt.Pipeline.options ->
  ?label:string ->
  unit ->
  t
