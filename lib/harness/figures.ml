(** Reproduction of the paper's evaluation tables and figures as text
    output. Each [figN] returns its data (for the test suite) and prints a
    table shaped like the paper's plot.

    Each figure maps over its benchmark specs through {!pmap}: with
    [?pool] the per-spec work (baseline runs plus tuning) fans out across
    worker domains, and all printing happens afterwards from the ordered
    results, so tables are bit-identical at any parallelism. *)

let pf = Fmt.pr

(* Per-spec parallelism: tuning inside a spec is adaptive/sequential, so a
   spec is the natural job grain for the figure tables. Progress (one step
   per finished spec) renders on stderr only when it is a TTY. *)
let pmap ~label pool f xs =
  Progress.with_progress ~label ~total:(List.length xs) @@ fun progress ->
  let f x =
    let r = f x in
    Progress.step progress;
    r
  in
  match pool with None -> List.map f xs | Some p -> Pool.map_list p f xs

(* ------------------------------------------------------------------ *)
(* Table I                                                              *)
(* ------------------------------------------------------------------ *)

let table1 ?(size = Benchmarks.Registry.Small) () =
  let kron, cnr, road, t0032, t2048, rand3, sat5 =
    Benchmarks.Registry.datasets size
  in
  pf "@.=== Table I: benchmarks and datasets (scaled; see DESIGN.md) ===@.";
  pf "%-6s %-45s@." "Bench" "Datasets";
  List.iter
    (fun (name, datasets) ->
      pf "%-6s %-45s@." name (String.concat ", " datasets))
    Benchmarks.Registry.table1;
  pf "@.Datasets:@.";
  List.iter
    (fun (d : Workloads.Graph_gen.named) ->
      pf "  %-10s %a  -- %s@." d.name Workloads.Csr.stats d.graph d.description)
    [ kron; cnr; road ];
  let bz (b : Workloads.Bezier.t) =
    let pts = Array.map (Workloads.Bezier.tess_points b) b.lines in
    pf "  %-10s lines=%d max_tess=%d avg_points=%d max_points=%d@." b.name
      (Array.length b.lines) b.max_tessellation
      (Array.fold_left ( + ) 0 pts / Array.length pts)
      (Array.fold_left max 0 pts)
  in
  bz t0032;
  bz t2048;
  List.iter
    (fun (f : Workloads.Sat.t) ->
      let avg, mx = Workloads.Sat.occurrence_stats f in
      pf "  %-10s vars=%d clauses=%d avg_occ=%.1f max_occ=%d@." f.name f.n_vars
        (Workloads.Sat.n_clauses f) avg mx)
    [ rand3; sat5 ]

(* ------------------------------------------------------------------ *)
(* Fig. 9: performance of all optimization combinations                *)
(* ------------------------------------------------------------------ *)

type fig9_row = {
  bench : string;
  dataset : string;
  cdp_time : float;
  no_cdp_time : float;
  (* (combo label, best time, best params) for the seven optimized combos *)
  combos : (string * float * Variant.params) list;
}

let opt_combos =
  List.filter (fun c -> c.Variant.t || c.Variant.c || c.Variant.a)
    Variant.all_combos

let fig9_row ?cfg ?quick ?beyond_max (spec : Benchmarks.Bench_common.spec) :
    fig9_row =
  let no_cdp = Experiment.run ?cfg spec Variant.No_cdp in
  let cdp = Experiment.run ?cfg spec (Variant.Cdp Dpopt.Pipeline.none) in
  let combos =
    List.map
      (fun combo ->
        let tuned = Tuning.tune ?quick ?beyond_max ?cfg spec combo in
        ( Variant.combo_label combo,
          tuned.best.Experiment.time,
          tuned.best_params ))
      opt_combos
  in
  {
    bench = spec.name;
    dataset = spec.dataset;
    cdp_time = cdp.time;
    no_cdp_time = no_cdp.time;
    combos;
  }

let fig9_headers =
  [ "No CDP"; "CDP+T"; "CDP+C"; "CDP+A"; "CDP+T+C"; "CDP+T+A"; "CDP+C+A";
    "CDP+T+C+A" ]

(* speedups over CDP in fig9_headers order *)
let row_speedups (r : fig9_row) =
  (r.cdp_time /. r.no_cdp_time)
  :: List.map (fun (_, t, _) -> r.cdp_time /. t) r.combos

let print_fig9_table ~title (rows : fig9_row list) =
  pf "@.=== %s (speedup over CDP; higher is better) ===@." title;
  pf "%-6s %-10s" "Bench" "Dataset";
  List.iter (fun h -> pf " %9s" h) fig9_headers;
  pf "@.";
  List.iter
    (fun r ->
      pf "%-6s %-10s" r.bench r.dataset;
      List.iter
        (fun s -> pf " %9s" (Stats.speedup_to_string s))
        (row_speedups r);
      pf "@.")
    rows;
  (* geomean row *)
  let cols = List.length fig9_headers in
  pf "%-6s %-10s" "geo" "mean";
  for i = 0 to cols - 1 do
    let s = Stats.geomean (List.map (fun r -> List.nth (row_speedups r) i) rows) in
    pf " %9s" (Stats.speedup_to_string s)
  done;
  pf "@."

let combo_time (r : fig9_row) label =
  match List.find_opt (fun (l, _, _) -> l = label) r.combos with
  | Some (_, t, _) -> t
  | None -> invalid_arg ("no combo " ^ label)

(* The headline geomeans quoted in the abstract / Section VIII-A. *)
let print_fig9_summary (rows : fig9_row list) =
  let geo f = Stats.geomean (List.map f rows) in
  let lines =
    [
      ( "CDP+T+C+A over CDP (paper: 43.0x)",
        geo (fun r -> r.cdp_time /. combo_time r "CDP+T+C+A") );
      ( "CDP+T+C+A over No CDP (paper: 8.7x)",
        geo (fun r -> r.no_cdp_time /. combo_time r "CDP+T+C+A") );
      ( "CDP+T+C+A over CDP+A i.e. KLAP (paper: 3.6x)",
        geo (fun r -> combo_time r "CDP+A" /. combo_time r "CDP+T+C+A") );
      ( "CDP+A over CDP (paper: 12.1x)",
        geo (fun r -> r.cdp_time /. combo_time r "CDP+A") );
      ( "CDP+A over No CDP (paper: 2.4x)",
        geo (fun r -> r.no_cdp_time /. combo_time r "CDP+A") );
      ( "CDP+T over CDP (paper: 13.4x)",
        geo (fun r -> r.cdp_time /. combo_time r "CDP+T") );
      ( "CDP+T+A over CDP+A (paper: 2.9x)",
        geo (fun r -> combo_time r "CDP+A" /. combo_time r "CDP+T+A") );
      ( "CDP+T+C+A over CDP+C+A (paper: 3.1x)",
        geo (fun r -> combo_time r "CDP+C+A" /. combo_time r "CDP+T+C+A") );
      ( "CDP+C over CDP (paper: 1.01x)",
        geo (fun r -> r.cdp_time /. combo_time r "CDP+C") );
      ( "CDP+T+C over CDP+T (paper: 1.09x)",
        geo (fun r -> combo_time r "CDP+T" /. combo_time r "CDP+T+C") );
      ( "CDP+C+A over CDP+A (paper: 1.16x)",
        geo (fun r -> combo_time r "CDP+A" /. combo_time r "CDP+C+A") );
      ( "CDP+T+C+A over CDP+T+A (paper: 1.22x)",
        geo (fun r -> combo_time r "CDP+T+A" /. combo_time r "CDP+T+C+A") );
    ]
  in
  pf "@.--- headline geomeans ---@.";
  List.iter
    (fun (label, v) -> pf "%-48s %s@." label (Stats.speedup_to_string v))
    lines;
  lines

let fig9 ?cfg ?quick ?pool ?(size = Benchmarks.Registry.Small) () =
  let specs = Benchmarks.Registry.all ~size () in
  let rows = pmap ~label:"fig9" pool (fun s -> fig9_row ?cfg ?quick s) specs in
  print_fig9_table ~title:"Fig. 9: Performance" rows;
  let summary = print_fig9_summary rows in
  (rows, summary)

(* ------------------------------------------------------------------ *)
(* Fig. 10: breakdown of execution time                                 *)
(* ------------------------------------------------------------------ *)

type fig10_cell = {
  variant : string;
  parent : float;
  child : float;
  agg : float;
  launch : float;
  disagg : float;
}

let fig10_cells ?cfg (spec : Benchmarks.Bench_common.spec) : fig10_cell list =
  (* Tune each of the three variants the figure compares, then re-run the
     best and read the tag breakdown. *)
  let cell combo =
    let tuned = Tuning.tune ?cfg spec combo in
    let s = tuned.best.Experiment.snap.breakdown in
    {
      variant = Variant.combo_label combo;
      parent = s.parent_cycles;
      child = s.child_cycles;
      agg = s.agg_cycles;
      launch = s.launch_cycles;
      disagg = s.disagg_cycles;
    }
  in
  [
    cell { Variant.t = false; c = false; a = true } (* KLAP baseline: CDP+A *);
    cell { Variant.t = true; c = false; a = true };
    cell { Variant.t = true; c = true; a = true };
  ]

let fig10 ?cfg ?pool ?(size = Benchmarks.Registry.Small) () =
  let specs = Benchmarks.Registry.all ~size () in
  let all =
    pmap ~label:"fig10" pool
      (fun (spec : Benchmarks.Bench_common.spec) ->
        (spec.name, spec.dataset, fig10_cells ?cfg spec))
      specs
  in
  pf "@.=== Fig. 10: Breakdown of execution time (fraction of CDP+A total; \
      lower is better) ===@.";
  pf "%-6s %-10s %-10s %8s %8s %8s %8s %8s %8s@." "Bench" "Dataset" "Variant"
    "parent" "child" "agg" "launch" "disagg" "total";
  List.iter
    (fun (bench, dataset, cells) ->
      let base =
        match cells with
        | b :: _ -> b.parent +. b.child +. b.agg +. b.launch +. b.disagg
        | [] -> 1.0
      in
      List.iter
        (fun c ->
          let n x = x /. base in
          pf "%-6s %-10s %-10s %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f@." bench
            dataset c.variant (n c.parent) (n c.child) (n c.agg) (n c.launch)
            (n c.disagg)
            (n (c.parent +. c.child +. c.agg +. c.launch +. c.disagg)))
        cells)
    all;
  all

(* ------------------------------------------------------------------ *)
(* Fig. 11: impact of threshold and aggregation granularity             *)
(* ------------------------------------------------------------------ *)

let gran_label = function
  | None -> "T only"
  | Some g -> Fmt.str "%a" Dpopt.Aggregation.pp_granularity g

(* One dataset per benchmark, as in the paper ("for space constraints"). *)
let fig11_specs ?(size = Benchmarks.Registry.Small) () =
  let wanted =
    [ ("BFS", "KRON"); ("BT", "T2048-C64"); ("MSTF", "KRON"); ("MSTV", "KRON");
      ("SP", "5-SAT"); ("SSSP", "KRON"); ("TC", "KRON") ]
  in
  List.filter_map
    (fun (name, dataset) -> Benchmarks.Registry.find ~size ~name ~dataset ())
    wanted

let fig11 ?cfg ?pool ?(size = Benchmarks.Registry.Small) () =
  let specs = fig11_specs ~size () in
  let data =
    pmap ~label:"fig11" pool
      (fun (spec : Benchmarks.Bench_common.spec) ->
        let cdp = Experiment.run ?cfg spec (Variant.Cdp Dpopt.Pipeline.none) in
        let table = Tuning.sweep ?cfg spec in
        (spec.name, spec.dataset, cdp.Experiment.time, table))
      specs
  in
  pf "@.=== Fig. 11: Impact of threshold and aggregation granularity \
      (speedup over CDP) ===@.";
  List.iter
    (fun (bench, dataset, cdp_time, table) ->
      pf "@.%s / %s (CDP time %.0f):@." bench dataset cdp_time;
      (match table with
      | (_, cells) :: _ ->
          pf "%10s" "threshold";
          List.iter (fun (g, _) -> pf " %14s" (gran_label g)) cells;
          pf "@."
      | [] -> ());
      List.iter
        (fun (thr, cells) ->
          pf "%10d" thr;
          List.iter
            (fun (_, t) ->
              pf " %14s" (Stats.speedup_to_string (cdp_time /. t)))
            cells;
          pf "@.")
        table)
    data;
  data

(* ------------------------------------------------------------------ *)
(* Fig. 12: road graphs (low nested parallelism)                        *)
(* ------------------------------------------------------------------ *)

let fig12 ?cfg ?quick ?pool ?(size = Benchmarks.Registry.Small) () =
  let specs = Benchmarks.Registry.road ~size () in
  (* the paper tunes the threshold beyond the largest launch here *)
  let rows =
    pmap ~label:"fig12" pool
      (fun s -> fig9_row ?cfg ?quick ~beyond_max:true s)
      specs
  in
  print_fig9_table
    ~title:"Fig. 12: Performance of graph benchmarks on road graphs" rows;
  let geo f = Stats.geomean (List.map f rows) in
  let no_cdp_vs_best =
    geo (fun r -> r.no_cdp_time /. combo_time r "CDP+T+C+A")
  in
  pf
    "@.CDP+T+C+A over No CDP on ROAD: %s (paper: below 1 -- optimizations \
     recover much but not all of the degradation)@."
    (Stats.speedup_to_string no_cdp_vs_best);
  (rows, no_cdp_vs_best)

(* ------------------------------------------------------------------ *)
(* Section VIII-C: fixed threshold 128                                  *)
(* ------------------------------------------------------------------ *)

let fixed128 ?cfg ?pool ?(size = Benchmarks.Registry.Small) () =
  let specs = Benchmarks.Registry.all ~size () in
  let results =
    pmap ~label:"fixed128" pool
      (fun (spec : Benchmarks.Bench_common.spec) ->
        let cca =
          Tuning.tune ?cfg spec { Variant.t = false; c = true; a = true }
        in
        let tca_best =
          Tuning.tune ?cfg spec { Variant.t = true; c = true; a = true }
        in
        let fixed_params =
          { tca_best.best_params with Variant.threshold = 128 }
        in
        let tca_fixed =
          Experiment.run ?cfg spec
            (Variant.instantiate
               { Variant.t = true; c = true; a = true }
               fixed_params)
        in
        let rf = cca.best.Experiment.time /. tca_fixed.Experiment.time in
        let rb = cca.best.Experiment.time /. tca_best.best.Experiment.time in
        (spec.name, spec.dataset, rf, rb))
      specs
  in
  pf "@.=== Sec. VIII-C: fixed threshold 128 vs tuned threshold ===@.";
  let ratios_fixed, ratios_best =
    List.split
      (List.map
         (fun (bench, dataset, rf, rb) ->
           pf "%-6s %-10s  fixed128: %-8s best: %-8s@." bench dataset
             (Stats.speedup_to_string rf)
             (Stats.speedup_to_string rb);
           (rf, rb))
         results)
  in
  let gf = Stats.geomean ratios_fixed and gb = Stats.geomean ratios_best in
  pf
    "geomean CDP+T+C+A over CDP+C+A: fixed-128 %s (paper: 1.9x), tuned %s \
     (paper: 3.1x)@."
    (Stats.speedup_to_string gf) (Stats.speedup_to_string gb);
  (gf, gb)
