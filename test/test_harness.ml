(* Harness tests: stats, variants, tuning, and figure-data sanity on a tiny
   benchmark. *)

let t name f = Alcotest.test_case name `Quick f

let tiny_spec () =
  let kron = Workloads.Graph_gen.kron_dataset ~scale:7 () in
  Benchmarks.Bfs.spec ~dataset:kron

(* A tiny spec whose [run] counts its calls, i.e. the simulations the
   harness makes of it (perfbench's figures workload wraps its specs the
   same way). *)
let counted_spec () =
  let spec = tiny_spec () in
  let calls = Atomic.make 0 in
  ( {
      spec with
      run =
        (fun dev ->
          Atomic.incr calls;
          spec.run dev);
    },
    calls )

let no_cdp = Harness.Variant.No_cdp
let cdp = Harness.Variant.Cdp Dpopt.Pipeline.none
let run = Harness.Experiment.run

let expect_validation_failure what f =
  match f () with
  | (_ : Harness.Experiment.measurement) ->
      Alcotest.failf "%s: expected Validation_failure" what
  | exception Harness.Experiment.Validation_failure _ -> ()

let suite =
  [
    t "geomean" (fun () ->
        Alcotest.(check (float 1e-9)) "pair" 2.0
          (Harness.Stats.geomean [ 1.0; 4.0 ]);
        Alcotest.(check (float 1e-9)) "identity" 3.0
          (Harness.Stats.geomean [ 3.0 ]);
        Alcotest.(check bool) "empty is nan" true
          (Float.is_nan (Harness.Stats.geomean [])));
    t "geomean rejects non-positive samples" (fun () ->
        let raises l =
          match Harness.Stats.geomean l with
          | (_ : float) -> false
          | exception Invalid_argument _ -> true
        in
        Alcotest.(check bool) "zero raises" true (raises [ 2.0; 0.0 ]);
        Alcotest.(check bool) "negative raises" true (raises [ -1.0 ]));
    t "mean min max" (fun () ->
        Alcotest.(check (float 1e-9)) "mean" 2.0
          (Harness.Stats.mean [ 1.0; 2.0; 3.0 ]);
        Alcotest.(check (float 1e-9)) "min" 1.0
          (Harness.Stats.minimum [ 3.0; 1.0; 2.0 ]);
        Alcotest.(check (float 1e-9)) "max" 3.0
          (Harness.Stats.maximum [ 3.0; 1.0; 2.0 ]));
    t "degenerate stats inputs agree on nan" (fun () ->
        (* all four aggregators answer the empty list the same way *)
        List.iter
          (fun (name, f) ->
            Alcotest.(check bool) name true (Float.is_nan (f [])))
          [
            ("mean", Harness.Stats.mean);
            ("minimum", Harness.Stats.minimum);
            ("maximum", Harness.Stats.maximum);
            ("geomean", Harness.Stats.geomean);
          ]);
    t "percentile interpolates between closest ranks" (fun () ->
        (* hand-computed: virtual index p * (n - 1), linear between ranks *)
        let p = Harness.Stats.percentile in
        Alcotest.(check (float 1e-9)) "median of 4" 2.5
          (p [ 1.0; 2.0; 3.0; 4.0 ] 0.5);
        Alcotest.(check (float 1e-9)) "exact rank" 2.0
          (p [ 1.0; 2.0; 3.0; 4.0; 5.0 ] 0.25);
        Alcotest.(check (float 1e-9)) "p90 of 1..10" 9.1
          (p [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] 0.9);
        Alcotest.(check (float 1e-9)) "unsorted input" 9.1
          (p [ 10.; 1.; 9.; 2.; 8.; 3.; 7.; 4.; 6.; 5. ] 0.9);
        Alcotest.(check (float 1e-9)) "singleton, any p" 7.0 (p [ 7.0 ] 0.99);
        Alcotest.(check (float 1e-9)) "p0 is the minimum" 1.0
          (p [ 3.0; 1.0; 2.0 ] 0.0);
        Alcotest.(check (float 1e-9)) "p100 is the maximum" 3.0
          (p [ 3.0; 1.0; 2.0 ] 1.0));
    t "percentile edge cases: nan on empty, never infinity" (fun () ->
        Alcotest.(check bool) "empty is nan" true
          (Float.is_nan (Harness.Stats.percentile [] 0.5));
        (* near-1 fractions stay within the sample range *)
        let v = Harness.Stats.percentile [ 1.0; 2.0 ] 0.999 in
        Alcotest.(check bool) "bounded above" true (v <= 2.0);
        Alcotest.(check bool) "bounded below" true (v >= 1.0);
        let raises p =
          match Harness.Stats.percentile [ 1.0 ] p with
          | (_ : float) -> false
          | exception Invalid_argument _ -> true
        in
        Alcotest.(check bool) "p > 1 raises" true (raises 1.5);
        Alcotest.(check bool) "p < 0 raises" true (raises (-0.1));
        Alcotest.(check bool) "nan p raises" true (raises Float.nan));
    t "speedup rendering" (fun () ->
        Alcotest.(check string) "hundreds" "120x"
          (Harness.Stats.speedup_to_string 120.4);
        Alcotest.(check string) "tens" "43.0x"
          (Harness.Stats.speedup_to_string 43.01);
        Alcotest.(check string) "small" "0.08x"
          (Harness.Stats.speedup_to_string 0.084));
    t "combo labels match the paper's notation" (fun () ->
        let labels =
          List.map Harness.Variant.combo_label Harness.Variant.all_combos
        in
        Alcotest.(check (list string)) "labels"
          [ "CDP"; "CDP+T"; "CDP+C"; "CDP+A"; "CDP+T+C"; "CDP+T+A"; "CDP+C+A";
            "CDP+T+C+A" ]
          labels);
    t "instantiate enables exactly the requested passes" (fun () ->
        let v =
          Harness.Variant.instantiate
            { Harness.Variant.t = true; c = false; a = true }
            Harness.Variant.default_params
        in
        match v with
        | Harness.Variant.Cdp o ->
            Alcotest.(check bool) "T" true (o.thresholding <> None);
            Alcotest.(check bool) "C" false (o.coarsening <> None);
            Alcotest.(check bool) "A" true (o.aggregation <> None)
        | _ -> Alcotest.fail "expected Cdp");
    t "threshold grid respects the largest launch" (fun () ->
        let spec = tiny_spec () in
        let grid = Harness.Tuning.threshold_grid spec in
        List.iter
          (fun thr ->
            Alcotest.(check bool) "bounded" true
              (thr <= spec.max_child_threads))
          grid;
        let beyond = Harness.Tuning.threshold_grid ~beyond_max:true spec in
        Alcotest.(check bool) "beyond adds one over-max point" true
          (List.exists (fun t -> t > spec.max_child_threads) beyond));
    t "param_grid only varies enabled passes" (fun () ->
        let spec = tiny_spec () in
        let grid_a =
          Harness.Tuning.param_grid
            { Harness.Variant.t = false; c = false; a = true }
            spec
        in
        let thresholds =
          List.sort_uniq compare
            (List.map (fun (p : Harness.Variant.params) -> p.threshold) grid_a)
        in
        Alcotest.(check int) "threshold fixed" 1 (List.length thresholds));
    Alcotest.test_case "experiment validates outputs" `Slow (fun () ->
        let spec = tiny_spec () in
        let m = Harness.Experiment.run spec Harness.Variant.No_cdp in
        Alcotest.(check string) "label" "No CDP" m.variant;
        Alcotest.(check bool) "time positive" true (m.time > 0.0));
    Alcotest.test_case "tune returns the minimum of its runs" `Slow (fun () ->
        let spec = tiny_spec () in
        let tuned =
          Harness.Tuning.tune spec { Harness.Variant.t = true; c = false; a = false }
        in
        List.iter
          (fun (_, (m : Harness.Experiment.measurement)) ->
            Alcotest.(check bool) "best is min" true
              (tuned.best.time <= m.time))
          tuned.all_runs);
    Alcotest.test_case "fig9 row speedups are ordered as in the paper" `Slow
      (fun () ->
        let spec = tiny_spec () in
        let row = Harness.Figures.fig9_row spec in
        (* CDP must be the slowest code version (speedups >= 1 for the
           optimized combos) *)
        List.iter
          (fun (label, time, _) ->
            Alcotest.(check bool)
              (label ^ " at least as fast as CDP")
              true
              (time <= row.cdp_time *. 1.05))
          row.combos);
  ]

(* The process-wide run memo of [Experiment.run] and the registry's one
   spec value per cell, which lets the figures share it. *)
let memo_suite =
  [
    t "memo: a repeated run simulates once and measures the same" (fun () ->
        let spec, calls = counted_spec () in
        let s0 = Harness.Experiment.simulated ()
        and r0 = Harness.Experiment.reused () in
        let a = run spec no_cdp in
        let b = run spec no_cdp in
        Alcotest.(check int) "one simulation" 1 (Atomic.get calls);
        Alcotest.(check bool) "equal measurements" true (a = b);
        Alcotest.(check (pair int int))
          "counters: one simulated, one reused" (1, 1)
          ( Harness.Experiment.simulated () - s0,
            Harness.Experiment.reused () - r0 ));
    t "memo: another variant, config or spec copy simulates again" (fun () ->
        let spec, calls = counted_spec () in
        ignore (run spec no_cdp);
        ignore (run spec cdp);
        Alcotest.(check int) "variant" 2 (Atomic.get calls);
        ignore
          (run
             ~cfg:{ Gpusim.Config.default with launch_service_interval = 0 }
             spec no_cdp);
        Alcotest.(check int) "config" 3 (Atomic.get calls);
        (* same name, dataset and closures: only physical identity differs *)
        let copy = { spec with name = spec.name } in
        ignore (run copy no_cdp);
        Alcotest.(check int) "copy" 4 (Atomic.get calls);
        ignore (run copy no_cdp);
        ignore (run spec no_cdp);
        Alcotest.(check int) "each key once" 4 (Atomic.get calls));
    t "memo: no config and the default config share an entry" (fun () ->
        let spec, calls = counted_spec () in
        ignore (run spec no_cdp);
        ignore (run ~cfg:Gpusim.Config.default spec no_cdp);
        Alcotest.(check int) "one simulation" 1 (Atomic.get calls));
    t "memo: every call validates, a reused run too" (fun () ->
        let spec, calls = counted_spec () in
        let refs = ref 0 in
        let spec =
          {
            spec with
            reference =
              (fun () ->
                incr refs;
                spec.reference ());
          }
        in
        ignore (run spec no_cdp);
        ignore (run spec no_cdp);
        Alcotest.(check int) "one simulation" 1 (Atomic.get calls);
        Alcotest.(check int) "a reference per call" 2 !refs;
        (* a copy with a wrong reference fails after the original ran *)
        let bad_refs = ref 0 in
        let bad =
          {
            spec with
            reference =
              (fun () ->
                incr bad_refs;
                42);
          }
        in
        expect_validation_failure "wrong reference" (fun () -> run bad no_cdp);
        Alcotest.(check int) "one reference per failing call" 1 !bad_refs;
        expect_validation_failure "wrong reference, again" (fun () ->
            run bad no_cdp);
        Alcotest.(check int) "original and copy simulated once each" 2
          (Atomic.get calls));
    t "memo: a run that raises is not stored" (fun () ->
        let spec = tiny_spec () in
        let calls = ref 0 in
        let flaky =
          {
            spec with
            run =
              (fun dev ->
                incr calls;
                if !calls = 1 then failwith "flaky run";
                spec.run dev);
          }
        in
        (match run flaky no_cdp with
        | _ -> Alcotest.fail "expected the first run to raise"
        | exception Failure _ -> ());
        ignore (run flaky no_cdp);
        ignore (run flaky no_cdp);
        Alcotest.(check int) "simulated again, then stored" 2 !calls);
    t "memo: run_cells with repeated cells, on 2 jobs and sequentially"
      (fun () ->
        let cells spec =
          let open Harness.Experiment in
          [
            cell spec no_cdp; cell spec cdp; cell spec no_cdp;
            cell ~cfg:Gpusim.Config.default spec cdp; cell spec no_cdp;
          ]
        in
        let measure ?pool spec =
          List.map fst (Harness.Experiment.run_cells ?pool (cells spec))
        in
        let par_spec, par_calls = counted_spec () in
        let par =
          Harness.Pool.with_pool ~jobs:2 (fun pool -> measure ~pool par_spec)
        in
        let seq_spec, seq_calls = counted_spec () in
        let seq = measure seq_spec in
        Alcotest.(check bool) "equal measurements" true (par = seq);
        Alcotest.(check int) "sequential: two distinct runs" 2
          (Atomic.get seq_calls);
        (* two domains that miss on one key at once may both simulate *)
        Alcotest.(check bool) "parallel: at most one run per cell" true
          (Atomic.get par_calls >= 2 && Atomic.get par_calls <= 5));
    t "registry: one spec value per (size, benchmark, dataset)" (fun () ->
        let open Benchmarks.Registry in
        let find size name dataset =
          Option.get (find ~size ~name ~dataset ())
        in
        let bt = find Small "BT" "T0032-C16" in
        Alcotest.(check bool) "find twice" true
          (bt == find Small "BT" "T0032-C16");
        Alcotest.(check bool) "find is in all" true
          (List.exists (fun s -> s == bt) (all ()));
        Alcotest.(check bool) "all twice" true
          (List.for_all2 ( == ) (all ()) (all ()));
        Alcotest.(check bool) "road twice" true
          (List.for_all2 ( == ) (road ()) (road ()));
        Alcotest.(check bool) "find is in road" true
          (List.exists (fun s -> s == find Small "BFS" "ROAD") (road ()));
        Alcotest.(check bool) "another size, another value" false
          (bt == find Medium "BT" "T0032-C16"));
    Alcotest.test_case "memo: fig10 cells reuse fig9's tuned runs" `Slow
      (fun () ->
        let spec, calls = counted_spec () in
        ignore (Harness.Figures.fig9_row spec);
        let after_fig9 = Atomic.get calls in
        let s0 = Harness.Experiment.simulated () in
        ignore (Harness.Figures.fig10_cells spec);
        Alcotest.(check int) "no new simulation" after_fig9 (Atomic.get calls);
        Alcotest.(check int) "none counted" s0 (Harness.Experiment.simulated ()));
  ]

let suite = suite @ memo_suite
