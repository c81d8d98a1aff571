(** runbench — run one benchmark/dataset under one optimization variant in
    the GPU simulator and print its time and metrics.

    {v
    runbench BFS KRON                       # plain CDP
    runbench BFS KRON --no-cdp
    runbench SSSP CNR -T 64 -C 8 -A multiblock:8
    runbench BT T2048-C64 -T 128 -A block --size medium
    runbench --sweep -j 4                   # full registry x variants,
                                            # 4 domains, BENCH_sweep.json
    v} *)

open Cmdliner

let granularity_conv =
  Arg.conv
    (Dpopt.Aggregation.granularity_of_string, Dpopt.Aggregation.pp_granularity)

let size_conv =
  Arg.conv (Benchmarks.Registry.size_of_string, Benchmarks.Registry.pp_size)

let bench =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"BENCH" ~doc:"Benchmark: BFS, BT, MSTF, MSTV, SP, SSSP, TC.")

let dataset =
  Arg.(
    value
    & pos 1 (some string) None
    & info [] ~docv:"DATASET"
        ~doc:"Dataset: KRON, CNR, ROAD, T0032-C16, T2048-C64, RAND-3, 5-SAT.")

let sweep =
  Arg.(
    value & flag
    & info [ "sweep" ]
        ~doc:
          "Instead of one cell, run the whole registry (every \
           benchmark/dataset of Table I plus the road graphs) under every \
           code version, print the speedup table and write the \
           $(b,BENCH_sweep.json) artifact. Cells run in parallel under \
           $(b,-j); measurements are bit-identical at any parallelism.")

let jobs =
  Arg.(
    value & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for $(b,--sweep) (default: available cores minus \
           one). $(b,-j 1) runs sequentially.")

let out =
  Arg.(
    value
    & opt string "BENCH_sweep.json"
    & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the sweep JSON artifact.")

let csv_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE"
        ~doc:"Also write the sweep as long-format CSV.")

let costmodel_out =
  Arg.(
    value
    & opt string "BENCH_costmodel.json"
    & info [ "costmodel-out" ] ~docv:"FILE"
        ~doc:
          "Where $(b,--sweep) writes the cost-model artifact (rank \
           correlation and surrogate-tuning runs saved per benchmark).")

let calibrate =
  Arg.(
    value & flag
    & info [ "calibrate" ]
        ~doc:
          "Fit the analytical cost model (lib/costmodel): run every \
           registry benchmark under the standard calibration corpus (8 \
           pass combinations x 2 knob sets), fit the coefficient table by \
           weighted non-negative least squares, print it as OCaml source \
           for lib/costmodel/table.ml, and report per-benchmark rank \
           correlation of the fitted model over the default-knob combos.")

let only =
  Arg.(
    value
    & opt (some (list string)) None
    & info [ "only" ] ~docv:"BENCH,..."
        ~doc:
          "With $(b,--calibrate): restrict to these benchmark names \
           (comma-separated, e.g. $(b,BFS,BT)). The $(b,@model) alias uses \
           this for its two-benchmark calibrate-and-validate smoke.")

let no_cdp = Arg.(value & flag & info [ "no-cdp" ] ~doc:"Run the non-CDP version.")

let threshold =
  Arg.(value & opt (some int) None & info [ "T"; "threshold" ] ~docv:"N")

let cfactor =
  Arg.(value & opt (some int) None & info [ "C"; "coarsen" ] ~docv:"FACTOR")

let granularity =
  Arg.(
    value
    & opt (some granularity_conv) None
    & info [ "A"; "aggregate" ] ~docv:"GRAN")

let size =
  Arg.(
    value
    & opt size_conv Benchmarks.Registry.Small
    & info [ "size" ] ~docv:"SIZE"
        ~doc:
          "Dataset scale: small, medium or large, in any case. The large \
           tier is paper-scale (RMAT scale 13, 100k+ Bezier lines) and is \
           meant to be run with $(b,--sample).")

let sample =
  Arg.(
    value & flag
    & info [ "sample" ]
        ~doc:
          "Simulate only a deterministic stratified sample of each large \
           grid's blocks and extrapolate the metrics (with a reported error \
           bound). Output validation is skipped — sampled results are \
           estimates by construction. Size-appropriate fractions: the \
           defaults at small/medium, ~2% block coverage at large.")

let trace =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Print a per-grid execution timeline (launch issue, queue wait, \
           execution span, blocks, SM footprint).")

let backend =
  Arg.(
    value
    & opt (enum [ ("sim", `Sim); ("native", `Native) ]) `Sim
    & info [ "backend" ] ~docv:"B"
        ~doc:
          "Execution backend: $(b,sim) (the GPU simulator, default) or \
           $(b,native) (transpile the selected variant to parallel OCaml, \
           compile and run it on host domains, and diff its memory dump \
           against the simulator). The native backend needs a static host \
           driver and so only covers BT, MSTV, SP and TC.")

let tenants =
  Arg.(
    value
    & opt (some int) None
    & info [ "tenants" ] ~docv:"N"
        ~doc:
          "Multi-tenant mode: instead of one benchmark cell, run $(docv) \
           concurrent host streams of bursty nested-launch jobs against one \
           shared simulated device — under the baseline pipeline and the \
           optimized one, each also isolated per tenant — and report \
           per-tenant latency percentiles, slowdown vs isolated, Jain \
           fairness and launch-queue wait attribution. Writes the \
           $(b,BENCH_mt.json) artifact (see $(b,--mt-out)).")

let policy =
  Arg.(
    value & opt string "fair"
    & info [ "policy" ] ~docv:"P"
        ~doc:
          "Admission policy for $(b,--tenants): $(b,fifo), $(b,rr), \
           $(b,fair), $(b,fair:w1,w2,..), $(b,priority) or \
           $(b,priority:bound).")

let mt_seed =
  Arg.(
    value & opt int 42
    & info [ "mt-seed" ] ~docv:"SEED"
        ~doc:"Traffic seed for $(b,--tenants); runs are byte-identical per seed.")

let mt_jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "mt-jobs" ] ~docv:"N"
        ~doc:
          "Jobs per tenant for $(b,--tenants) (default: the MT_SMOKE_JOBS \
           knob, read through Harness.Env).")

let slots =
  Arg.(
    value
    & opt (some int) None
    & info [ "slots" ] ~docv:"N"
        ~doc:
          "Concurrent admitted jobs device-wide for $(b,--tenants) \
           (default: two per tenant, so the measured interference is \
           device contention, not admission queueing).")

let mt_out =
  Arg.(
    value & opt string "BENCH_mt.json"
    & info [ "mt-out" ] ~docv:"FILE"
        ~doc:"Where $(b,--tenants) writes the multi-tenant JSON artifact.")

let min_fairness =
  Arg.(
    value
    & opt (some float) None
    & info [ "min-fairness" ] ~docv:"F"
        ~doc:
          "With $(b,--tenants): exit 1 unless the optimized pipeline's Jain \
           fairness index is at least $(docv). The $(b,@mt) alias gates on \
           this.")

let min_recovery =
  Arg.(
    value
    & opt (some float) None
    & info [ "min-recovery" ] ~docv:"R"
        ~doc:
          "With $(b,--tenants): exit 1 unless baseline mean slowdown \
           exceeds optimized mean slowdown by at least the factor $(docv). \
           The $(b,@mt) alias gates on this.")

let run_sweep ~jobs ~size ~out ~csv_out ~costmodel_out =
  let jobs =
    match jobs with Some j -> max 1 j | None -> Harness.Pool.default_jobs ()
  in
  Fmt.epr "sweep: %d worker domain%s@." jobs (if jobs = 1 then "" else "s");
  let t, cm =
    Harness.Pool.with_pool ~jobs (fun pool ->
        let t = Harness.Sweep.run ~size ~pool () in
        let cm = Harness.Costreport.collect ~size ~pool () in
        (t, cm))
  in
  Harness.Sweep.print_table t;
  Harness.Costreport.print_table cm;
  Harness.Sweep.write_json out t;
  Fmt.epr "wrote %s@." out;
  Harness.Costreport.write_json costmodel_out cm;
  Fmt.epr "wrote %s@." costmodel_out;
  (match csv_out with
  | None -> ()
  | Some p ->
      Harness.Sweep.write_csv p t;
      Fmt.epr "wrote %s@." p);
  (* wall-clock summary is host timing -> stderr, keeping stdout
     deterministic across -j levels *)
  Fmt.epr "sweep wall clock: %.1fs at -j %d (sequential estimate %.1fs, \
           speedup %.2fx)@."
    t.sw_wall_parallel_s t.sw_jobs t.sw_wall_sequential_est_s
    (t.sw_wall_sequential_est_s /. t.sw_wall_parallel_s);
  0

let run_calibrate ~jobs ~size ~only =
  let jobs =
    match jobs with Some j -> max 1 j | None -> Harness.Pool.default_jobs ()
  in
  let specs =
    Benchmarks.Registry.all ~size () @ Benchmarks.Registry.road ~size ()
  in
  let specs =
    match only with
    | None -> specs
    | Some names ->
        let names = List.map String.uppercase_ascii names in
        List.filter
          (fun (s : Benchmarks.Bench_common.spec) ->
            List.mem (String.uppercase_ascii s.name) names)
          specs
  in
  Fmt.epr "calibrate: %d spec%s x 8 combos x 2 knob sets, %d worker domain%s@."
    (List.length specs)
    (if List.length specs = 1 then "" else "s")
    jobs
    (if jobs = 1 then "" else "s");
  let per_spec =
    Harness.Pool.with_pool ~jobs (fun pool ->
        Harness.Pool.map_list pool Costmodel.Calibrate.collect_corpus specs)
  in
  let samples = List.concat per_spec in
  let coeffs =
    Costmodel.Calibrate.fit_coeffs
      ~version:Costmodel.Table.current.Costmodel.Model.version samples
  in
  Fmt.pr "(* fitted on %d samples; paste into lib/costmodel/table.ml *)@."
    (List.length samples);
  Costmodel.Calibrate.print_table Fmt.stdout coeffs;
  Fmt.pr "@.%-6s %-10s %9s %9s@." "bench" "dataset" "spearman" "kendall";
  let rhos =
    List.map2
      (fun (spec : Benchmarks.Bench_common.spec) ss ->
        (* validate on the default-knob half of the corpus: the 8 pass
           combinations the acceptance metric is defined over *)
        let ss = List.filteri (fun i _ -> i < 8) ss in
        let meas = List.map (fun s -> s.Costmodel.Calibrate.s_measured) ss in
        let pred = List.map (Costmodel.Calibrate.predict_sample coeffs) ss in
        let rho = Harness.Stats.spearman pred meas in
        Fmt.pr "%-6s %-10s %9.3f %9.3f@." spec.name spec.dataset rho
          (Harness.Stats.kendall_tau pred meas);
        rho)
      specs per_spec
  in
  Fmt.pr "mean spearman over %d benchmark cells: %.3f@." (List.length rhos)
    (Harness.Stats.mean rhos);
  0

(* Native-backend single-cell run: transpile the selected variant to
   parallel OCaml, compile and run it under dune, and require its memory
   dump to be byte-identical to the simulator's on the same variant.
   Exit 0 on a verified match, 1 for user-level errors (no static host
   driver, construct the backend rejects), 2 on divergence. *)
let run_native ~size (spec : Benchmarks.Bench_common.spec) no_cdp threshold
    cfactor granularity =
  match spec.native_host with
  | None ->
      let covered =
        List.sort_uniq compare
          (List.filter_map
             (fun (s : Benchmarks.Bench_common.spec) ->
               Option.map (fun _ -> s.name) s.native_host)
             (Benchmarks.Registry.all ~size ()))
      in
      Fmt.epr
        "%s/%s: host driver is iterative (read-back-driven); the native \
         backend only runs benchmarks with a static host spec (%s)@."
        spec.name spec.dataset
        (String.concat ", " covered);
      1
  | Some host -> (
      let prog =
        Minicu.Parser.program
          (if no_cdp then spec.no_cdp_src else spec.cdp_src)
      in
      let prog, autos, label =
        if no_cdp then (prog, [], "no-cdp")
        else
          let opts = Dpopt.Pipeline.make ?threshold ?cfactor ?granularity () in
          let r = Dpopt.Pipeline.run ~opts prog in
          (r.prog, r.auto_params, "cdp")
      in
      match Native.Emit.supported prog with
      | Some (loc, msg) ->
          Fmt.epr "%a: native backend: %s@." Minicu.Loc.pp loc msg;
          1
      | None ->
          let variants =
            [ { Native.Emit.vu_label = label; vu_prog = prog; vu_autos = autos } ]
          in
          (* Repeated executions of the one compiled binary: the covered
             benchmarks are order-independent, so every run — whatever the
             domain scheduling — must reproduce the simulator's dump.
             NATIVE_SMOKE_ITERS sizes the @native alias smoke. *)
          let runs = Harness.Env.get "NATIVE_SMOKE_ITERS" in
          let outs =
            Native.Build.compile_and_run_many ~runs
              ~source:(Native.Emit.unit_source ~variants ~host)
              ()
          in
          let sim =
            Native.Hostspec.render_dump
              (Native.Hostspec.run_sim ~cfg:Gpusim.Config.default prog
                 ~auto_params:autos host)
          in
          let bad = ref 0 in
          List.iteri
            (fun i out ->
              match List.assoc_opt label (Native.Build.sections out) with
              | None ->
                  incr bad;
                  Fmt.epr "run %d: emitted program produced no dump@." i
              | Some native when String.equal sim native -> ()
              | Some native ->
                  incr bad;
                  Fmt.epr
                    "NATIVE/SIM DIVERGENCE on %s/%s %s (run %d):@.-- native \
                     --@.%s@.-- sim --@.%s@."
                    spec.name spec.dataset label i native sim)
            outs;
          if !bad = 0 then begin
            Fmt.pr "%s / %s under %s (native backend)@." spec.name spec.dataset
              label;
            Fmt.pr "%s@." sim;
            Fmt.pr
              "native dump matches GpuSim byte-for-byte across %d run%s@."
              runs
              (if runs = 1 then "" else "s");
            0
          end
          else 2)

(* Multi-tenant mode: shared-device congestion vs per-tenant isolation,
   baseline vs optimized pipeline. Exit 0, or 1 when a --min-fairness /
   --min-recovery gate fails (the @mt alias pins both). *)
let run_mt ~tenants ~policy ~mt_seed ~mt_jobs ~slots ~jobs ~mt_out
    ~min_fairness ~min_recovery =
  match Tenancy.Policy.of_string policy with
  | Error msg ->
      Fmt.epr "runbench: %s@." msg;
      2
  | Ok pol ->
      if tenants <= 0 then begin
        Fmt.epr "runbench: --tenants must be positive@.";
        2
      end
      else begin
        let jobs_per_tenant =
          match mt_jobs with
          | Some n -> max 1 n
          | None -> Harness.Env.get "MT_SMOKE_JOBS"
        in
        let slots =
          match slots with Some s -> max 1 s | None -> 2 * tenants
        in
        let tcfg =
          { Tenancy.Traffic.default with seed = mt_seed; tenants; jobs_per_tenant }
        in
        let cell =
          {
            Tenancy.Sim.sm_cfg = Gpusim.Config.default;
            policy = pol;
            slots;
          }
        in
        let jobs =
          match jobs with Some j -> max 1 j | None -> Harness.Pool.default_jobs ()
        in
        Fmt.epr "multi-tenant: %d worker domain%s@." jobs
          (if jobs = 1 then "" else "s");
        let r =
          Harness.Pool.with_pool ~jobs (fun pool ->
              Tenancy.Report.run ~pool cell tcfg)
        in
        Tenancy.Report.print Fmt.stdout r;
        Tenancy.Report.write_json mt_out r;
        Fmt.epr "wrote %s@." mt_out;
        let failed = ref false in
        (match min_fairness with
        | Some b when not (r.rs_optimized.cp_fairness >= b) ->
            failed := true;
            Fmt.epr
              "GATE FAILURE: optimized fairness %.3f below the %.3f floor@."
              r.rs_optimized.cp_fairness b
        | _ -> ());
        (match min_recovery with
        | Some b when not (r.rs_recovery >= b) ->
            failed := true;
            Fmt.epr "GATE FAILURE: recovery %.2fx below the %.2fx floor@."
              r.rs_recovery b
        | _ -> ());
        if !failed then 1 else 0
      end

let run_one bench dataset no_cdp threshold cfactor granularity size trace
    backend ~sample =
  match Benchmarks.Registry.find ~size ~name:bench ~dataset () with
  | None ->
      Fmt.epr "unknown benchmark/dataset pair %s/%s@." bench dataset;
      1
  | Some spec when backend = `Native ->
      run_native ~size spec no_cdp threshold cfactor granularity
  | Some spec -> (
      let sampling =
        if sample then Some (Harness.Experiment.sampling_for_size size)
        else None
      in
      let cfg = { Gpusim.Config.default with sampling } in
      let variant =
        if no_cdp then Harness.Variant.No_cdp
        else
          Harness.Variant.Cdp
            (Dpopt.Pipeline.make ?threshold ?cfactor ?granularity ())
      in
      if trace then begin
        (* traced run: drive the device directly so we can read the events *)
        let dev = Benchmarks.Bench_common.load_variant ~cfg spec variant in
        Gpusim.Device.enable_trace dev;
        ignore (spec.run dev);
        Fmt.pr "%a@." Gpusim.Trace.timeline (Gpusim.Device.trace_events dev)
      end;
      match Harness.Experiment.run ~cfg spec variant with
      | m ->
          Fmt.pr "%s / %s under %s@." m.bench m.dataset m.variant;
          if m.sampled then (
            Fmt.pr "simulated time: %.0f cycles (extrapolated)@." m.time;
            Fmt.pr
              "output fingerprint: %d (NOT validated: sampled run, outputs \
               are estimates)@."
              m.fingerprint)
          else begin
            Fmt.pr "simulated time: %.0f cycles@." m.time;
            Fmt.pr "output fingerprint: %d (validated against reference)@."
              m.fingerprint
          end;
          Fmt.pr
            "grids=%d (device %d, host %d) blocks=%d threads=%d@."
            m.snap.grids_launched m.snap.device_launches m.snap.host_launches
            m.snap.blocks_executed m.snap.threads_executed;
          Fmt.pr
            "breakdown: parent=%.0f child=%.0f agg=%.0f disagg=%.0f \
             launch=%.0f serialized=%d max_pending=%d@."
            m.snap.breakdown.parent_cycles m.snap.breakdown.child_cycles
            m.snap.breakdown.agg_cycles m.snap.breakdown.disagg_cycles
            m.snap.breakdown.launch_cycles
            m.snap.serialized_launches m.snap.max_pending_launches;
          Option.iter
            (fun r -> Fmt.pr "sampling: %a@." Costmodel.Extrapolate.pp r)
            m.extrapolation;
          0
      | exception Harness.Experiment.Validation_failure msg ->
          Fmt.epr "VALIDATION FAILURE: %s@." msg;
          2)

let run bench dataset sweep calibrate only jobs out csv_out costmodel_out
    no_cdp threshold cfactor granularity size trace backend tenants
    policy mt_seed mt_jobs slots mt_out min_fairness min_recovery sample =
  if calibrate then run_calibrate ~jobs ~size ~only
  else if sweep then run_sweep ~jobs ~size ~out ~csv_out ~costmodel_out
  else
    match tenants with
    | Some tenants ->
        run_mt ~tenants ~policy ~mt_seed ~mt_jobs ~slots ~jobs ~mt_out
          ~min_fairness ~min_recovery
    | None -> (
        match (bench, dataset) with
        | Some bench, Some dataset ->
            run_one bench dataset no_cdp threshold cfactor granularity size
              trace backend ~sample
        | _ ->
            Fmt.epr
              "runbench: BENCH and DATASET are required unless --sweep or \
               --tenants@.";
            2)

let cmd =
  Cmd.v
    (Cmd.info "runbench" ~version:"1.0.0"
       ~doc:"run one paper benchmark in the GPU simulator")
    Term.(
      const run $ bench $ dataset $ sweep $ calibrate $ only $ jobs $ out
      $ csv_out $ costmodel_out $ no_cdp $ threshold $ cfactor $ granularity
      $ size $ trace $ backend $ tenants $ policy $ mt_seed $ mt_jobs
      $ slots $ mt_out $ min_fairness $ min_recovery $ sample)

let () = exit (Cmd.eval' cmd)
