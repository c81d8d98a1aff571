(** Feature extraction: MiniCU program + workload profile + pass options +
    device config → the raw model terms, each the cycle count one machine
    mechanism would charge if its fitted coefficient were exactly 1.

    The extractor mirrors the simulator's laws ({!Gpusim.Sched},
    {!Gpusim.Vm}) symbolically:

    - block compute = Σ over warps of the max-lane cost, divided by
      [sm_warp_parallelism]; one block per SM at a time, so device
      throughput divides by [num_sms * sm_warp_parallelism];
    - every device launch serializes through the grid-management unit
      (one per [launch_service_interval] cycles) and pays
      [device_launch_latency];
    - threads of a kernel that lexically contains a launch pay
      [cdp_entry_cost] at entry.

    Pass effects are derived from the {e untransformed} CDP source plus
    the semantics of each pass, gated by the pipeline's own eligibility
    reports: a pass that refuses a site contributes nothing. *)

open Minicu

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
  t_service : float;  (** Grid-management-unit serialization (M/D/1 busy). *)
  t_latency : float;  (** Per-round device-launch latency. *)
  t_host : float;  (** Host-launch latency (driver rounds + followups). *)
  t_sched : float;  (** Per-block dispatch overhead. *)
  t_capture : float;  (** Aggregation capture stores on parent lanes. *)
  t_disagg : float;  (** Disaggregation searches in aggregated children. *)
  t_div : float;  (** Divergence penalty: density × compute terms. *)
}

(* Static evaluation of a launch's block-dimension expression; falls back
   to [default] when it is not a literal (after simplification). *)
let static_block_size ~default (e : Ast.expr) =
  match Ast_util.simplify_expr e with
  | Ast.Int_lit n when n > 0 -> n
  | Ast.Dim3_ctor (x, _, _) -> (
      match Ast_util.simplify_expr x with
      | Ast.Int_lit n when n > 0 -> n
      | _ -> default)
  | _ -> default

let ceil_div a b = (a + b - 1) / b

(* Items of one round split into consecutive chunks of [width]; returns the
   per-chunk item lists as (offset, len) pairs. *)
let chunks ~width n =
  let rec go off acc =
    if off >= n then List.rev acc
    else go (off + width) ((off, min width (n - off)) :: acc)
  in
  go 0 []

let log2_ceil n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) ((v + 1) / 2) in
  go 0 (max 1 n)

let extract ?(cfg = Gpusim.Config.default) ~(prog : Ast.program)
    ~(parent_kernel : string) ~(profile : Profile.t)
    ~(opts : Dpopt.Pipeline.options) ?label () : t =
  let label = match label with Some l -> l | None -> Dpopt.Pipeline.label opts in
  let parent = Ast.find_func_exn prog parent_kernel in
  let sites = Ast_util.launch_sites parent.f_body in
  let n_sites = List.length sites in
  let ws = cfg.warp_size in
  let sms = float_of_int cfg.num_sms in
  let fi = float_of_int in
  (* Static per-thread costs. Data-dependent loops (binary searches, inner
     clause loops) are assumed to run ~log2(mean child size) iterations —
     profile-derived, constant across pass combinations. *)
  let trip = max 2 (log2_ceil (int_of_float (Profile.mean_size profile) + 2)) in
  let w_parent = Static_cost.func_cost ~cfg ~trip parent in
  let child, child_block =
    match sites with
    | (l, _) :: _ ->
        ( Ast.find_func prog l.Ast.l_kernel,
          static_block_size ~default:ws l.Ast.l_block )
    | [] -> (None, ws)
  in
  let w_child =
    match child with
    | Some f -> Static_cost.func_cost ~cfg ~trip f
    | None -> 0.0
  in
  let w_item = w_child +. Static_cost.serial_loop_overhead cfg in
  (* Divergence features over parent + child. *)
  let div_events =
    let count f =
      List.length
        (List.filter
           (fun (ev : Divergence.event) -> ev.ev_ctx <> Divergence.Uniform)
           (Divergence.events prog f))
    in
    count parent + match child with Some f -> count f | None -> 0
  in
  let ast_nodes =
    Ast_util.func_size parent
    + (match child with Some f -> Ast_util.func_size f | None -> 0)
  in
  let div_density =
    if ast_nodes = 0 then 0.0 else fi div_events /. fi ast_nodes
  in
  (* Decode the pass knobs, gated by the pipeline's eligibility verdicts:
     a pass that refuses every site of this parent has no effect. *)
  let report_on reports get =
    List.exists
      (fun r ->
        let sr_parent, sr_transformed = get r in
        sr_parent = parent_kernel && sr_transformed)
      reports
  in
  let pr = Dpopt.Pipeline.run ~opts prog in
  let threshold =
    match opts.thresholding with
    | Some (o : Dpopt.Thresholding.options)
      when report_on pr.threshold_reports (fun (r : Dpopt.Thresholding.site_report) ->
               (r.sr_parent, r.sr_transformed)) ->
        Some o.threshold
    | _ -> None
  in
  let cfactor =
    match opts.coarsening with
    | Some (o : Dpopt.Coarsening.options)
      when report_on pr.coarsen_reports (fun (r : Dpopt.Coarsening.site_report) ->
               (r.sr_parent, r.sr_transformed)) ->
        max 1 o.cfactor
    | _ -> 1
  in
  let agg =
    match opts.aggregation with
    | Some (o : Dpopt.Aggregation.options)
      when report_on pr.agg_reports (fun (r : Dpopt.Aggregation.site_report) ->
               (r.sr_parent, r.sr_transformed)) ->
        Some o
    | _ -> None
  in
  (* Group width of one aggregated launch, in parent threads. *)
  let group_width =
    match agg with
    | Some { granularity = Dpopt.Aggregation.Warp; _ } -> ws
    | Some { granularity = Dpopt.Aggregation.Block; _ } -> profile.parent_block
    | Some { granularity = Dpopt.Aggregation.Multi_block k; _ } ->
        max 1 k * profile.parent_block
    | Some { granularity = Dpopt.Aggregation.Grid; _ } | None -> max_int
  in
  let grid_gran =
    match agg with
    | Some { granularity = Dpopt.Aggregation.Grid; _ } -> true
    | _ -> false
  in
  let agg_threshold =
    match agg with Some { agg_threshold = Some v; _ } -> max 1 v | _ -> 1
  in
  (* Walk the profile round by round, warp by warp, group by group. *)
  let n_items = Profile.n_items profile in
  let rounds = max 1 profile.rounds in
  let launches s = s > 0 && match threshold with Some t -> s > t | None -> true in
  let serializes s = s > 0 && match threshold with Some t -> s <= t | None -> false in
  (* Term accumulators, already normalized by each round's effective
     throughput: a grid with fewer blocks than SMs cannot use the whole
     device (one block per SM), so its work divides by
     min(blocks, num_sms) · sm_warp_parallelism, not the device peak. *)
  let t_parent = ref 0.0 in
  let t_serial = ref 0.0 in
  let t_issue = ref 0.0 in
  let t_child = ref 0.0 in
  let t_capture = ref 0.0 in
  let t_disagg = ref 0.0 in
  let t_entry = ref 0.0 in
  let par = fi cfg.sm_warp_parallelism in
  let eff blocks = fi (max 1 (min blocks cfg.num_sms)) *. par in
  let parent_blocks = ref 0 in
  let child_blocks = ref 0 in
  let dev_launches = ref 0 in
  let rounds_with_dev = ref 0 in
  let host_followups = ref 0 in
  let capture_cost =
    (* participating lane stores its size/args and takes an index *)
    fi ((4 * cfg.mem_cost) + cfg.atomic_cost)
  in
  let round_off = ref 0 in
  for r = 0 to rounds - 1 do
    let items_r = (n_items / rounds) + if r < n_items mod rounds then 1 else 0 in
    let base = !round_off in
    round_off := base + items_r;
    if items_r > 0 then begin
      let round_parent_blocks = ceil_div items_r profile.parent_block in
      parent_blocks := !parent_blocks + round_parent_blocks;
      let round_parent = ref 0.0 in
      let round_serial = ref 0.0 in
      let round_issue = ref 0.0 in
      let round_capture = ref 0.0 in
      let round_disagg = ref 0.0 in
      let round_child = ref 0.0 in
      let round_child_blocks = ref 0 in
      (* warps: base parent work, serialized items, launch issue *)
      List.iter
        (fun (off, len) ->
          round_parent := !round_parent +. w_parent;
          let mx_serial = ref 0 and any_launch = ref false in
          for i = off to off + len - 1 do
            let s = profile.child_sizes.(base + i) in
            if serializes s then mx_serial := max !mx_serial s;
            if launches s then any_launch := true
          done;
          if !mx_serial > 0 then
            round_serial := !round_serial +. (fi !mx_serial *. w_item);
          if !any_launch then
            if agg = None then round_issue := !round_issue +. fi cfg.launch_issue_cost
            else round_capture := !round_capture +. capture_cost)
        (chunks ~width:ws items_r);
      (* groups: launch counts and child work *)
      let round_dev = ref 0 in
      List.iter
        (fun (off, len) ->
          let participating = ref 0 in
          let group_child_warps = ref 0 in
          for i = off to off + len - 1 do
            let s = profile.child_sizes.(base + i) in
            if launches s then begin
              incr participating;
              let threads = ceil_div s cfactor in
              let warps = ceil_div threads ws in
              group_child_warps := !group_child_warps + warps;
              round_child :=
                !round_child +. (fi warps *. (fi (min cfactor s) *. w_child));
              round_child_blocks :=
                !round_child_blocks + ceil_div threads child_block
            end
          done;
          if !participating > 0 then
            if agg = None then round_dev := !round_dev + !participating
            else if !participating < agg_threshold then
              (* below the aggregation threshold each parent launches
                 directly *)
              round_dev := !round_dev + !participating
            else begin
              (if grid_gran then incr host_followups
               else begin
                 round_dev := !round_dev + 1;
                 (* the elected leader issues the one aggregated launch *)
                 round_issue := !round_issue +. fi cfg.launch_issue_cost
               end);
              (* disaggregation: every child warp binary-searches its
                 parent among the group's participants *)
              let depth = log2_ceil !participating in
              round_disagg :=
                !round_disagg
                +. fi !group_child_warps
                   *. fi depth
                   *. fi (cfg.mem_cost + (2 * cfg.arith_cost))
            end)
        (chunks ~width:(min group_width (max 1 items_r)) items_r);
      child_blocks := !child_blocks + !round_child_blocks;
      dev_launches := !dev_launches + !round_dev;
      if !round_dev > 0 then incr rounds_with_dev;
      (* normalize this round's work by what it can actually occupy:
         parent-side work by the parent grid's blocks, child-side work by
         the round's child blocks *)
      let peff = eff round_parent_blocks in
      let ceff = eff !round_child_blocks in
      t_parent := !t_parent +. (!round_parent /. peff);
      t_serial := !t_serial +. (!round_serial /. peff);
      t_issue := !t_issue +. (!round_issue /. peff);
      t_child := !t_child +. (!round_child /. ceff);
      t_capture := !t_capture +. (!round_capture /. peff);
      t_disagg := !t_disagg +. (!round_disagg /. ceff);
      if n_sites > 0 && not grid_gran then
        t_entry :=
          !t_entry
          +. (fi (ceil_div items_r ws) *. fi cfg.cdp_entry_cost /. peff)
    end
  done;
  let t_parent = !t_parent in
  let t_serial = !t_serial in
  let t_child = !t_child in
  let t_issue = !t_issue in
  let t_capture = !t_capture in
  let t_disagg = !t_disagg in
  (* cdp_entry (accumulated per round above): paid by every parent thread
     iff the transformed parent still lexically contains a launch (grid
     granularity moves it to a host followup). *)
  let t_entry = !t_entry in
  let t_service = fi !dev_launches *. fi cfg.launch_service_interval in
  let t_latency = fi !rounds_with_dev *. fi cfg.device_launch_latency in
  let t_host = fi (rounds + !host_followups) *. fi cfg.host_launch_latency in
  let t_sched =
    fi (!parent_blocks + !child_blocks)
    *. fi cfg.block_sched_overhead /. sms
  in
  let t_div = div_density *. (t_parent +. t_serial +. t_child) in
  {
    label;
    n_items;
    n_launch_sites = n_sites;
    loop_depth = Ast_util.max_loop_depth parent.f_body;
    div_events;
    div_density;
    w_parent;
    w_child;
    t_parent;
    t_serial;
    t_child;
    t_entry;
    t_issue;
    t_service;
    t_latency;
    t_host;
    t_sched;
    t_capture;
    t_disagg;
    t_div;
  }

(** Extract features for a benchmark spec (parses its CDP source and views
    its checked-in workload as the profile). *)
let of_spec ?cfg (spec : Benchmarks.Bench_common.spec)
    ~(opts : Dpopt.Pipeline.options) ?label () : t =
  extract ?cfg
    ~prog:(Minicu.Parser.program spec.cdp_src)
    ~parent_kernel:spec.parent_kernel
    ~profile:(Profile.of_workload spec.workload)
    ~opts ?label ()
