(** The [BENCH_costmodel.json] artifact: per-benchmark predicted-vs-
    measured rank correlation for the checked-in coefficient table, plus a
    surrogate-guided vs. unpruned autotuning comparison (simulator runs
    saved, and whether the surrogate's pick stayed within 10% of the
    unpruned best). Everything here is deterministic. *)

type bench_report = {
  cr_bench : string;
  cr_dataset : string;
  cr_spearman : float;  (** Over the 8 pass combinations. *)
  cr_kendall : float;
  cr_plain_runs : int;  (** Simulator runs of the unpruned search. *)
  cr_surrogate_runs : int;
      (** Simulator runs of the surrogate search (frontier + descent). *)
  cr_saved_pct : float;  (** 100·(plain − surrogate)/plain. *)
  cr_plain_best : float;
  cr_surrogate_best : float;
  cr_within_10pct : bool;
      (** Surrogate best_time ≤ 1.1 × unpruned best_time — "the true best
          survived pruning" up to the acceptance tolerance. *)
  cr_best_rank : int;  (** Model rank of the surrogate winner (0-based). *)
}

type t = {
  cm_table_version : int;
  cm_size : Benchmarks.Registry.size;
  cm_budget : int;
  cm_reports : bench_report list;
  cm_mean_spearman : float;
  cm_min_spearman : float;
  cm_mean_saved_pct : float;
  cm_all_within_10pct : bool;
}

(* Autotuning is compared on the full T+C+A combination — the richest
   space, so pruning has the most to save and the most to lose. *)
let full_combo = { Variant.t = true; c = true; a = true }

let report_spec ?(budget = 12) (spec : Benchmarks.Bench_common.spec) :
    bench_report =
  let coeffs = Costmodel.Table.current in
  let samples = Costmodel.Calibrate.collect spec in
  let predicted =
    List.map (Costmodel.Calibrate.predict_sample coeffs) samples
  in
  let measured =
    List.map (fun s -> s.Costmodel.Calibrate.s_measured) samples
  in
  let plain = Autotune.search ~budget spec full_combo in
  let sur = Autotune.search ~budget ~surrogate:coeffs spec full_combo in
  {
    cr_bench = spec.name;
    cr_dataset = spec.dataset;
    cr_spearman = Stats.spearman predicted measured;
    cr_kendall = Stats.kendall_tau predicted measured;
    cr_plain_runs = plain.Autotune.runs_used;
    cr_surrogate_runs = sur.Autotune.runs_used;
    cr_saved_pct =
      (if plain.Autotune.runs_used = 0 then 0.0
       else
         100.0
         *. float_of_int (plain.Autotune.runs_used - sur.Autotune.runs_used)
         /. float_of_int plain.Autotune.runs_used);
    cr_plain_best = plain.Autotune.best_time;
    cr_surrogate_best = sur.Autotune.best_time;
    cr_within_10pct =
      sur.Autotune.best_time <= 1.1 *. plain.Autotune.best_time;
    cr_best_rank =
      (match sur.Autotune.surrogate with
      | Some r -> r.Autotune.sr_best_rank
      | None -> -1);
  }

let collect ?(size = Benchmarks.Registry.Small) ?pool ?(budget = 12) () : t =
  let specs =
    Benchmarks.Registry.all ~size () @ Benchmarks.Registry.road ~size ()
  in
  let reports =
    match pool with
    | Some p -> Pool.map_list p (report_spec ~budget) specs
    | None -> List.map (report_spec ~budget) specs
  in
  let spearmen = List.map (fun r -> r.cr_spearman) reports in
  {
    cm_table_version = Costmodel.Table.current.Costmodel.Model.version;
    cm_size = size;
    cm_budget = budget;
    cm_reports = reports;
    cm_mean_spearman = Stats.mean spearmen;
    cm_min_spearman = Stats.minimum spearmen;
    cm_mean_saved_pct =
      Stats.mean (List.map (fun r -> r.cr_saved_pct) reports);
    cm_all_within_10pct = List.for_all (fun r -> r.cr_within_10pct) reports;
  }

let print_table t =
  let pf = Fmt.pr in
  pf "@.=== Cost model vs simulator (table v%d, %a datasets, budget %d) \
      ===@."
    t.cm_table_version Benchmarks.Registry.pp_size t.cm_size t.cm_budget;
  pf "%-6s %-10s %8s %8s %6s %6s %7s %9s@." "Bench" "Dataset" "spearman"
    "kendall" "runs" "sur" "saved%" "within10%";
  List.iter
    (fun r ->
      pf "%-6s %-10s %8.3f %8.3f %6d %6d %6.0f%% %9s@." r.cr_bench
        r.cr_dataset r.cr_spearman r.cr_kendall r.cr_plain_runs
        r.cr_surrogate_runs r.cr_saved_pct
        (if r.cr_within_10pct then "yes" else "NO"))
    t.cm_reports;
  pf "mean spearman %.3f (min %.3f); mean runs saved %.0f%%; all within \
      10%%: %s@."
    t.cm_mean_spearman t.cm_min_spearman t.cm_mean_saved_pct
    (if t.cm_all_within_10pct then "yes" else "NO")

let write_json path t =
  Out_channel.with_open_text path (fun oc ->
      let p fmt = Printf.fprintf oc fmt in
      p "{\n";
      p "  \"schema\": %d,\n" Sweep.schema_version;
      p "  \"kind\": \"dpopt.costmodel\",\n";
      p "  \"table_version\": %d,\n" t.cm_table_version;
      p "  \"size\": \"%s\",\n"
        (Fmt.to_to_string Benchmarks.Registry.pp_size t.cm_size);
      p "  \"budget\": %d,\n" t.cm_budget;
      p "  \"mean_spearman\": %.4f,\n" t.cm_mean_spearman;
      p "  \"min_spearman\": %.4f,\n" t.cm_min_spearman;
      p "  \"mean_runs_saved_pct\": %.1f,\n" t.cm_mean_saved_pct;
      p "  \"all_within_10pct\": %b,\n" t.cm_all_within_10pct;
      p "  \"benchmarks\": [\n";
      List.iteri
        (fun i r ->
          p
            "    {\"bench\": \"%s\", \"dataset\": \"%s\", \"spearman\": \
             %.4f, \"kendall\": %.4f, \"plain_runs\": %d, \
             \"surrogate_runs\": %d, \"runs_saved_pct\": %.1f, \
             \"plain_best\": %.0f, \"surrogate_best\": %.0f, \
             \"within_10pct\": %b, \"surrogate_best_rank\": %d}%s\n"
            r.cr_bench r.cr_dataset r.cr_spearman r.cr_kendall
            r.cr_plain_runs r.cr_surrogate_runs r.cr_saved_pct
            r.cr_plain_best r.cr_surrogate_best r.cr_within_10pct
            r.cr_best_rank
            (if i = List.length t.cm_reports - 1 then "" else ","))
        t.cm_reports;
      p "  ]\n";
      p "}\n")
