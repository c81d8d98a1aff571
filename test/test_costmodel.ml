(* Cost-model suite: rank-correlation statistics against hand-computed
   values, golden feature vectors for three benchmarks (promote with
   CORPUS_PROMOTE=1, like the corpus suite), the registry-wide accuracy
   bar for the checked-in coefficient table, and the surrogate-guided
   autotuning acceptance numbers (runs saved, best within 10%). *)

let t name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ---------------------------------------------------------------- *)
(* Rank-correlation statistics                                       *)
(* ---------------------------------------------------------------- *)

let check_nan name v =
  Alcotest.(check bool) name true (Float.is_nan v)

let stats_tests =
  [
    t "spearman matches the hand-computed value" (fun () ->
        (* y = [1;3;2;5;4]: d² sums to 4, ρ = 1 − 6·4/(5·24) = 0.8 *)
        let rho =
          Harness.Stats.spearman [ 1.; 2.; 3.; 4.; 5. ] [ 1.; 3.; 2.; 5.; 4. ]
        in
        Alcotest.(check (float 1e-9)) "rho" 0.8 rho;
        Alcotest.(check (float 1e-9)) "perfect" 1.0
          (Harness.Stats.spearman [ 1.; 2.; 3. ] [ 10.; 20.; 30. ]);
        Alcotest.(check (float 1e-9)) "reversed" (-1.0)
          (Harness.Stats.spearman [ 1.; 2.; 3. ] [ 3.; 2.; 1. ]));
    t "kendall tau matches the hand-computed value" (fun () ->
        (* y = [1;3;2;5;4]: 8 concordant, 2 discordant pairs → τ = 0.6 *)
        let tau =
          Harness.Stats.kendall_tau [ 1.; 2.; 3.; 4.; 5. ]
            [ 1.; 3.; 2.; 5.; 4. ]
        in
        Alcotest.(check (float 1e-9)) "tau" 0.6 tau;
        Alcotest.(check (float 1e-9)) "reversed" (-1.0)
          (Harness.Stats.kendall_tau [ 1.; 2.; 3. ] [ 3.; 2.; 1. ]));
    t "ties get average ranks" (fun () ->
        (* x = [1;1;2], y = [1;2;3]: rank(x) = [1.5;1.5;3], Pearson with
           [1;2;3] = (3−2.25)/√(1.5·2) ≈ 0.8660 *)
        let rho = Harness.Stats.spearman [ 1.; 1.; 2. ] [ 1.; 2.; 3. ] in
        Alcotest.(check (float 1e-4)) "tied rho" 0.8660 rho;
        Alcotest.(check (float 1e-9)) "tied tau-b = 1 on agreeing ties" 1.0
          (Harness.Stats.kendall_tau [ 1.; 1.; 2.; 2. ] [ 1.; 1.; 2.; 2. ]));
    t "degenerate inputs yield nan" (fun () ->
        check_nan "spearman []" (Harness.Stats.spearman [] []);
        check_nan "kendall []" (Harness.Stats.kendall_tau [] []);
        check_nan "spearman singleton" (Harness.Stats.spearman [ 1. ] [ 2. ]);
        check_nan "spearman all-tied side"
          (Harness.Stats.spearman [ 1.; 1.; 1. ] [ 1.; 2.; 3. ]);
        Alcotest.check_raises "length mismatch"
          (Invalid_argument "Stats.spearman: length mismatch") (fun () ->
            ignore (Harness.Stats.spearman [ 1. ] [ 1.; 2. ])));
  ]

(* ---------------------------------------------------------------- *)
(* Golden feature vectors (test/corpus, CORPUS_PROMOTE=1 to rewrite)  *)
(* ---------------------------------------------------------------- *)

let corpus_dir =
  if Sys.file_exists "corpus" then "corpus"
  else if Sys.file_exists "test/corpus" then "test/corpus"
  else Fmt.failwith "cannot locate the corpus directory from %s" (Sys.getcwd ())

let promote_dir =
  if Sys.file_exists "../../../test/corpus" then "../../../test/corpus"
  else corpus_dir

let promoting = Sys.getenv_opt "CORPUS_PROMOTE" <> None

let render_features (spec : Benchmarks.Bench_common.spec) =
  let b = Buffer.create 1024 in
  List.iter
    (fun (label, opts) ->
      let f = Costmodel.Feature.of_spec spec ~opts ~label () in
      Buffer.add_string b (Fmt.str "[%s]\n" label);
      Array.iteri
        (fun i v ->
          Buffer.add_string b
            (Fmt.str "%s = %.6g\n" Costmodel.Model.term_names.(i) v))
        (Costmodel.Model.terms f))
    (Dpopt.Pipeline.enumerate ());
  Buffer.contents b

let golden_feature_test ~name ~dataset =
  slow (Fmt.str "golden feature vector: %s/%s" name dataset) (fun () ->
      let spec =
        match Benchmarks.Registry.find ~name ~dataset () with
        | Some s -> s
        | None -> Alcotest.failf "registry has no %s/%s" name dataset
      in
      let golden_name =
        Fmt.str "costmodel_%s_%s.features" (String.lowercase_ascii name)
          (String.lowercase_ascii dataset)
      in
      let actual = render_features spec in
      let committed = Filename.concat corpus_dir golden_name in
      if promoting then
        Out_channel.with_open_text
          (Filename.concat promote_dir golden_name)
          (fun oc -> Out_channel.output_string oc actual)
      else if not (Sys.file_exists committed) then
        Alcotest.failf "no %s; run with CORPUS_PROMOTE=1 to create it"
          golden_name
      else
        let expected =
          In_channel.with_open_text committed In_channel.input_all
        in
        if expected <> actual then
          Alcotest.failf
            "%s/%s feature vector deviates from its golden (%s).@.--- \
             expected@.%s@.--- got@.%s@.If the change is intentional, rerun \
             with CORPUS_PROMOTE=1."
            name dataset golden_name expected actual)

let golden_tests =
  [
    golden_feature_test ~name:"BFS" ~dataset:"KRON";
    golden_feature_test ~name:"BT" ~dataset:"T0032-C16";
    golden_feature_test ~name:"SP" ~dataset:"RAND-3";
  ]

(* ---------------------------------------------------------------- *)
(* Autotune memoization and surrogate pruning                        *)
(* ---------------------------------------------------------------- *)

let tiny_spec () =
  Benchmarks.Bfs.spec ~dataset:(Workloads.Graph_gen.kron_dataset ~scale:7 ())

let tca = { Harness.Variant.t = true; c = true; a = true }

let autotune_tests =
  [
    slow "memo is keyed on params: disabled knobs dedupe" (fun () ->
        (* Only thresholding enabled over 2 thresholds: 2 distinct
           experiments, everything else the rng draws is a cache hit. *)
        let spec = tiny_spec () in
        let space =
          {
            Harness.Autotune.thresholds = [ 32; 64 ];
            cfactors = [ 1; 2; 4 ];
            granularities = Harness.Tuning.all_granularities;
          }
        in
        let combo = { Harness.Variant.t = true; c = false; a = false } in
        let o = Harness.Autotune.search ~budget:8 ~space spec combo in
        Alcotest.(check bool) "at most 2 simulator runs" true
          (o.runs_used <= 2);
        Alcotest.(check bool) "revisits hit the cache" true (o.cache_hits > 0);
        List.iter
          (fun ((p : Harness.Variant.params), _) ->
            Alcotest.(check int) "disabled cfactor pinned to default"
              Harness.Variant.default_params.cfactor p.cfactor)
          o.trace);
    slow "surrogate prunes the grid and stays within 10%" (fun () ->
        let spec = tiny_spec () in
        let plain = Harness.Autotune.search ~budget:12 spec tca in
        let sur =
          Harness.Autotune.search ~budget:12
            ~surrogate:Costmodel.Table.current spec tca
        in
        Alcotest.(check bool)
          (Fmt.str "at least 40%% fewer runs (%d vs %d)" sur.runs_used
             plain.runs_used)
          true
          (float_of_int sur.runs_used
          <= 0.6 *. float_of_int plain.runs_used);
        Alcotest.(check bool)
          (Fmt.str "within 10%% of unpruned best (%.0f vs %.0f)"
             sur.best_time plain.best_time)
          true
          (sur.best_time <= 1.1 *. plain.best_time);
        match sur.surrogate with
        | None -> Alcotest.fail "surrogate report missing"
        | Some r ->
            Alcotest.(check int) "whole grid scored"
              (List.length (Harness.Autotune.enumerate_params tca
                              (Harness.Autotune.default_space spec)))
              r.sr_grid;
            Alcotest.(check int) "simulated = runs_used" sur.runs_used
              r.sr_simulated;
            Alcotest.(check int) "ranking covers the grid" r.sr_grid
              (List.length r.sr_predicted));
    slow "surrogate search is deterministic" (fun () ->
        let spec = tiny_spec () in
        let a =
          Harness.Autotune.search ~surrogate:Costmodel.Table.current spec tca
        in
        let b =
          Harness.Autotune.search ~surrogate:Costmodel.Table.current spec tca
        in
        Alcotest.(check (float 0.0)) "same best" a.best_time b.best_time;
        Alcotest.(check bool) "same params" true
          (a.best_params = b.best_params));
  ]

(* ---------------------------------------------------------------- *)
(* Registry-wide acceptance numbers                                  *)
(* ---------------------------------------------------------------- *)

let registry_tests =
  [
    slow "registry: checked-in table meets the acceptance bars" (fun () ->
        let cm =
          Harness.Pool.with_pool ~jobs:(Harness.Pool.default_jobs ())
            (fun pool -> Harness.Costreport.collect ~pool ())
        in
        Alcotest.(check int) "report carries the shipped table version"
          Costmodel.Table.current.Costmodel.Model.version cm.cm_table_version;
        (* rank correlation: >= 0.8 across the registry, and no benchmark
           below 0.7 (the survivors are near-tie inversions and the T-vs-A
           cluster swap documented in DESIGN.md section 8) *)
        Alcotest.(check bool)
          (Fmt.str "mean spearman %.3f >= 0.8" cm.cm_mean_spearman)
          true
          (cm.cm_mean_spearman >= 0.8);
        List.iter
          (fun (r : Harness.Costreport.bench_report) ->
            Alcotest.(check bool)
              (Fmt.str "%s/%s spearman %.3f >= 0.7" r.cr_bench r.cr_dataset
                 r.cr_spearman)
              true
              (r.cr_spearman >= 0.7);
            Alcotest.(check bool)
              (Fmt.str "%s/%s saved %.0f%% >= 40%%" r.cr_bench r.cr_dataset
                 r.cr_saved_pct)
              true
              (r.cr_saved_pct >= 40.0);
            Alcotest.(check bool)
              (Fmt.str "%s/%s surrogate best %.0f within 10%% of %.0f"
                 r.cr_bench r.cr_dataset r.cr_surrogate_best r.cr_plain_best)
              true r.cr_within_10pct)
          cm.cm_reports;
        (* and the artifact that reports them is self-describing *)
        let path = Filename.temp_file "dpopt" ".json" in
        Harness.Costreport.write_json path cm;
        let body = In_channel.with_open_text path In_channel.input_all in
        Sys.remove path;
        List.iter
          (fun needle ->
            Alcotest.(check bool) needle true
              (contains ~needle body))
          [
            "\"schema\": 2"; "\"kind\": \"dpopt.costmodel\"";
            "\"mean_spearman\""; "\"runs_saved_pct\""; "\"within_10pct\"";
          ]);
  ]

(* ---------------------------------------------------------------- *)
(* Sweep artifact schema                                             *)
(* ---------------------------------------------------------------- *)

let sweep_cell : Harness.Sweep.cell =
  {
    sw_bench = "BFS";
    sw_dataset = "KRON";
    sw_variant = "CDP";
    sw_time = 1000.0;
    sw_predicted = 900.0;
    sw_fingerprint = 42;
    sw_speedup_vs_cdp = 1.0;
    sw_wall_s = 0.0;
  }

let schema_tests =
  [
    t "sweep artifacts carry schema version 2" (fun () ->
        Alcotest.(check int) "schema_version" 2 Harness.Sweep.schema_version;
        let t' : Harness.Sweep.t =
          {
            sw_size = Benchmarks.Registry.Small;
            sw_jobs = 1;
            sw_cells =
              [ sweep_cell; { sweep_cell with sw_predicted = nan;
                              sw_variant = "No CDP" } ];
            sw_wall_parallel_s = 0.0;
            sw_wall_sequential_est_s = 0.0;
          }
        in
        let jpath = Filename.temp_file "dpopt" ".json" in
        let cpath = Filename.temp_file "dpopt" ".csv" in
        Harness.Sweep.write_json jpath t';
        Harness.Sweep.write_csv cpath t';
        let json = In_channel.with_open_text jpath In_channel.input_all in
        let csv = In_channel.with_open_text cpath In_channel.input_lines in
        Sys.remove jpath;
        Sys.remove cpath;
        Alcotest.(check bool) "json schema 2" true
          (contains ~needle:"\"schema\": 2" json);
        Alcotest.(check bool) "json kind" true
          (contains ~needle:"\"kind\": \"dpopt.sweep\"" json);
        Alcotest.(check bool) "json predicted" true
          (contains ~needle:"\"predicted_cycles\": 900" json);
        Alcotest.(check bool) "json null predicted for No CDP" true
          (contains ~needle:"\"predicted_cycles\": null" json);
        (match csv with
        | header :: row1 :: _ ->
            Alcotest.(check string) "csv header"
              "schema,bench,dataset,variant,time_cycles,predicted_cycles,\
               fingerprint,speedup_vs_cdp"
              header;
            Alcotest.(check bool) "csv row schema" true
              (String.length row1 > 2 && String.sub row1 0 2 = "2,")
        | _ -> Alcotest.fail "csv too short"));
  ]

(* ---- report reuse ----------------------------------------------------- *)

(* The compile service hands [Feature.extract] the pipeline result its own
   pass stages built; that must give the features a fresh run gives. *)
let reuse_tests =
  [
    t "extract ~pipeline:(Pipeline.run ~opts prog) equals extract alone"
      (fun () ->
        let open Benchmarks.Registry in
        List.iter
          (fun (spec : Benchmarks.Bench_common.spec) ->
            let prog = Minicu.Parser.program spec.cdp_src in
            List.iter
              (fun (label, opts) ->
                let extract ?pipeline () =
                  Costmodel.Feature.extract ~prog
                    ~parent_kernel:spec.parent_kernel ~profile:spec.workload
                    ~opts ?pipeline ()
                in
                let alone = extract () in
                let reused =
                  extract ~pipeline:(Dpopt.Pipeline.run ~opts prog) ()
                in
                if compare alone reused <> 0 then
                  Alcotest.failf "%s/%s %s: features differ" spec.name
                    spec.dataset label)
              (Dpopt.Pipeline.enumerate ()))
          (all ~size:Small () @ road ~size:Small ()));
  ]

let suite =
  stats_tests @ golden_tests @ autotune_tests @ registry_tests @ schema_tests
  @ reuse_tests
