(** A small derivative-free autotuner for the optimization parameters.

    Section VIII-C notes the framework "exposes these parameters in a
    configurable manner to make it easy for users to leverage off-the-shelf
    autotuners" (they cite OpenTuner). This module is a self-contained
    stand-in: random sampling over the parameter space followed by greedy
    neighborhood descent, with a run budget. It typically lands within a
    few percent of the exhaustive search at a fraction of the runs —
    matching the paper's observation that "users can typically find a
    combination of parameters that is very close to the best with less
    than ten runs".

    With [~surrogate] the search instead scores the {e whole} parameter
    grid with the analytical cost model ({!Costmodel.Model}) — which costs
    no simulator runs — then spends at most half the budget on the
    simulator: a frontier of the [topk] best-predicted points with
    distinct thresholds, followed by greedy descent from the frontier's
    winner. The outcome reports how many runs the pruning saved. *)

type space = {
  thresholds : int list;
  cfactors : int list;
  granularities : Dpopt.Aggregation.granularity list;
}

let default_space (spec : Benchmarks.Bench_common.spec) =
  {
    thresholds = Tuning.threshold_grid spec;
    cfactors = [ 1; 2; 4; 8; 16; 32 ];
    granularities = Tuning.all_granularities;
  }

type surrogate_report = {
  sr_grid : int;  (** Parameter points scored by the model. *)
  sr_simulated : int;  (** Simulator runs spent (frontier + descent). *)
  sr_saved_vs_budget : int;  (** [budget - sr_simulated], floored at 0. *)
  sr_best_rank : int;
      (** Predicted rank of the simulated winner (0 = the model's own top
          choice; larger = pruning needed the depth). *)
  sr_predicted : (Variant.params * float) list;
      (** The full predicted ranking, ascending by predicted cycles. *)
}

type outcome = {
  best_params : Variant.params;
  best_time : float;
  runs_used : int;  (** Simulator runs actually performed. *)
  cache_hits : int;
      (** Evaluations answered from the params-keyed memo table instead of
          the simulator (revisits during descent, or points differing only
          in a knob the combo disables). *)
  trace : (Variant.params * float) list;  (** Simulator evaluation order. *)
  surrogate : surrogate_report option;  (** Present iff [~surrogate]. *)
}

(* index-based point in the space *)
type point = { ti : int; ci : int; gi : int }

let params_of_point space p : Variant.params =
  {
    Variant.threshold = List.nth space.thresholds p.ti;
    cfactor = List.nth space.cfactors p.ci;
    granularity = List.nth space.granularities p.gi;
    agg_threshold = None;
  }

(* Knobs of disabled passes don't reach the pipeline ([Variant.instantiate]
   drops them), so normalize them to the defaults: evaluations that differ
   only there are the same experiment and must hit the memo. The same goes
   for knobs a pass *ignores* at the chosen setting: the aggregation
   threshold only exists in warp/block codegen (Section V-B), so at
   multi-block/grid granularity two params differing only in
   [agg_threshold] produce byte-identical programs and must share a memo
   entry — keying on the raw record undercounted [cache_hits] and spent
   simulator runs re-measuring the same experiment. *)
let normalize (combo : Variant.combo) (p : Variant.params) : Variant.params =
  let d = Variant.default_params in
  {
    Variant.threshold = (if combo.t then p.threshold else d.Variant.threshold);
    cfactor = (if combo.c then p.cfactor else d.Variant.cfactor);
    granularity = (if combo.a then p.granularity else d.Variant.granularity);
    agg_threshold =
      (if
         combo.a
         &&
         match p.granularity with
         | Dpopt.Aggregation.Warp | Dpopt.Aggregation.Block -> true
         | Dpopt.Aggregation.Multi_block _ | Dpopt.Aggregation.Grid -> false
       then p.agg_threshold
       else d.Variant.agg_threshold);
  }

(* Distinct experiments the space holds for this combo. *)
let effective_size (combo : Variant.combo) space =
  (if combo.t then List.length space.thresholds else 1)
  * (if combo.c then List.length space.cfactors else 1)
  * if combo.a then List.length space.granularities else 1

let neighbors space p =
  let clamp hi v = max 0 (min (hi - 1) v) in
  let t_hi = List.length space.thresholds
  and c_hi = List.length space.cfactors
  and g_hi = List.length space.granularities in
  List.sort_uniq compare
    [
      { p with ti = clamp t_hi (p.ti - 1) };
      { p with ti = clamp t_hi (p.ti + 1) };
      { p with ci = clamp c_hi (p.ci - 1) };
      { p with ci = clamp c_hi (p.ci + 1) };
      { p with gi = clamp g_hi (p.gi - 1) };
      { p with gi = clamp g_hi (p.gi + 1) };
    ]
  |> List.filter (fun q -> q <> p)

(* Every distinct experiment of the space for this combo, disabled knobs
   pinned to the defaults, in deterministic grid order. *)
let enumerate_params (combo : Variant.combo) space : Variant.params list =
  let d = Variant.default_params in
  let ts = if combo.t then space.thresholds else [ d.Variant.threshold ] in
  let cs = if combo.c then space.cfactors else [ d.Variant.cfactor ] in
  let gs = if combo.a then space.granularities else [ d.Variant.granularity ] in
  List.concat_map
    (fun t ->
      List.concat_map
        (fun c ->
          List.map
            (fun g ->
              {
                Variant.threshold = t;
                cfactor = c;
                granularity = g;
                agg_threshold = None;
              })
            gs)
        cs)
    ts

(** [search ?budget ?seed ?space ?surrogate ?topk spec combo] tunes the
    enabled passes of [combo] with at most [budget] simulator runs
    (default 12). Runs are memoized on normalized {!Variant.params},
    deterministic, and each validates the benchmark output. With
    [~surrogate] the model scores the whole grid, then at most
    [budget / 2] simulator runs are spent: a frontier of the [topk]
    (default [max 1 (budget / 3)]) best-predicted distinct-threshold
    points plus greedy descent from the frontier's winner. *)
let search ?(budget = 12) ?(seed = 1) ?space ?surrogate ?topk
    (spec : Benchmarks.Bench_common.spec) (combo : Variant.combo) : outcome =
  let space = Option.value space ~default:(default_space spec) in
  let cache : (Variant.params, float) Hashtbl.t = Hashtbl.create 16 in
  let cache_hits = ref 0 in
  let trace = ref [] in
  let runs = ref 0 in
  let eval_params p =
    let key = normalize combo p in
    match Hashtbl.find_opt cache key with
    | Some t ->
        incr cache_hits;
        t
    | None ->
        incr runs;
        let m = Experiment.run spec (Variant.instantiate combo key) in
        Hashtbl.add cache key m.Experiment.time;
        trace := (key, m.Experiment.time) :: !trace;
        m.Experiment.time
  in
  match surrogate with
  | Some coeffs ->
      (* Surrogate-guided: static scores for the whole grid, simulator for
         the top-k frontier only. *)
      let prog = Minicu.Parser.program spec.cdp_src in
      let scored =
        List.map
          (fun params ->
            let opts =
              match Variant.instantiate combo params with
              | Variant.Cdp o -> o
              | Variant.No_cdp -> assert false
            in
            let f =
              Costmodel.Feature.extract ~prog
                ~parent_kernel:spec.parent_kernel ~profile:spec.workload ~opts
                ()
            in
            (params, Costmodel.Model.predict coeffs f))
          (enumerate_params combo space)
      in
      let ranking =
        List.stable_sort (fun (_, a) (_, b) -> Float.compare a b) scored
      in
      let k = match topk with Some k -> max 1 k | None -> max 1 (budget / 3) in
      let cap = max k (budget / 2) in
      (* Frontier: the best-predicted point of each of the [k] best-ranked
         distinct thresholds. The threshold moves the optimum further than
         any other knob, and within-threshold ordering is the model's
         weakest axis (DESIGN.md §8) — so spread the few real runs across
         thresholds rather than burning them on near-duplicates of the
         model's single favourite. *)
      let frontier =
        let seen = Hashtbl.create 8 in
        List.filter
          (fun ((p : Variant.params), _) ->
            if Hashtbl.length seen < k && not (Hashtbl.mem seen p.threshold)
            then begin
              Hashtbl.add seen p.threshold ();
              true
            end
            else false)
          ranking
      in
      let best_params = ref (normalize combo (fst (List.hd frontier))) in
      let best_t = ref infinity in
      List.iter
        (fun (params, _) ->
          let t = eval_params params in
          if t < !best_t then begin
            best_params := normalize combo params;
            best_t := t
          end)
        frontier;
      (* Greedy neighborhood descent from the frontier's winner with the
         remaining run cap: cheap insurance against the model mis-ordering
         cfactor / granularity within the winning threshold. *)
      let index_of v l =
        let rec go i = function
          | [] -> 0
          | x :: tl -> if x = v then i else go (i + 1) tl
        in
        go 0 l
      in
      let best_pt =
        ref
          {
            ti = index_of !best_params.Variant.threshold space.thresholds;
            ci = index_of !best_params.Variant.cfactor space.cfactors;
            gi = index_of !best_params.Variant.granularity space.granularities;
          }
      in
      let improved = ref true in
      while !improved && !runs < cap do
        improved := false;
        List.iter
          (fun q ->
            if !runs < cap then begin
              let t = eval_params (params_of_point space q) in
              if t < !best_t then begin
                best_pt := q;
                best_params := normalize combo (params_of_point space q);
                best_t := t;
                improved := true
              end
            end)
          (neighbors space !best_pt)
      done;
      let best_rank =
        let rec go i = function
          | [] -> 0
          | (p, _) :: tl ->
              if normalize combo p = !best_params then i else go (i + 1) tl
        in
        go 0 ranking
      in
      {
        best_params = !best_params;
        best_time = !best_t;
        runs_used = !runs;
        cache_hits = !cache_hits;
        trace = List.rev !trace;
        surrogate =
          Some
            {
              sr_grid = List.length scored;
              sr_simulated = !runs;
              sr_saved_vs_budget = max 0 (budget - !runs);
              sr_best_rank = best_rank;
              sr_predicted = ranking;
            };
      }
  | None ->
      let rng = Workloads.Rng.create ~seed in
      let eval p = eval_params (params_of_point space p) in
      let random_point () =
        {
          ti = Workloads.Rng.int rng (List.length space.thresholds);
          ci = Workloads.Rng.int rng (List.length space.cfactors);
          gi = Workloads.Rng.int rng (List.length space.granularities);
        }
      in
      (* phase 1: random sampling for half the budget (capped by the number
         of distinct experiments the combo actually has, so small effective
         spaces cannot spin on cache hits forever) *)
      let target = min ((budget + 1) / 2) (effective_size combo space) in
      let best = ref (random_point ()) in
      let best_t = ref (eval !best) in
      let attempts = ref 1 in
      while !runs < target && !attempts < 64 * budget do
        incr attempts;
        let p = random_point () in
        let t = eval p in
        if t < !best_t then begin
          best := p;
          best_t := t
        end
      done;
      (* phase 2: greedy neighborhood descent with the remaining budget *)
      let improved = ref true in
      while !improved && !runs < budget do
        improved := false;
        List.iter
          (fun q ->
            if !runs < budget then
              let t = eval q in
              if t < !best_t then begin
                best := q;
                best_t := t;
                improved := true
              end)
          (neighbors space !best)
      done;
      {
        best_params = normalize combo (params_of_point space !best);
        best_time = !best_t;
        runs_used = !runs;
        cache_hits = !cache_hits;
        trace = List.rev !trace;
        surrogate = None;
      }
