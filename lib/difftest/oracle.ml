(** The transformation-equivalence oracle.

    The paper's central correctness claim (Sec. VI) is that thresholding,
    coarsening and aggregation are semantics-preserving and compose in any
    combination. The oracle operationalizes that claim for a generated
    {!Gen.case}:

    {b Equivalence definition.} For every compiled variant [V] and simulator
    configuration [S]:

    - {e memory}: the driver-allocated device buffers after running [V]
      under [S] are bit-identical to the untransformed baseline run under
      [S] (snapshotted with {!Gpusim.Device.dump_memory}; compiler-inserted
      allocations such as aggregation buffers are excluded);
    - {e launch metrics}: no launch is serialized unless thresholding ran; a
      variant never issues {e more} device-side launches than the baseline;
      thresholding alone conserves launches ([serialized + issued =
      baseline issued]); coarsening alone preserves the issued count
      exactly.

    A variant that raises during compilation or execution of a program the
    baseline runs cleanly is also a failure (the simulator doubles as a
    memory checker, so a transformed out-of-bounds access surfaces here).

    {b Domain safety.} [check] builds a fresh {!Gpusim.Device.t} (hence
    fresh memory and metrics) per variant × configuration run and touches
    no shared mutable state — [sim_configs] and variant lists are
    immutable after construction. Concurrent [check] calls on distinct
    cases from distinct domains are therefore safe; [dpfuzz -j] relies on
    this. *)

open Minicu

(** A compiled program variant: transformed source plus the
    runtime-allocated trailing parameters its kernels expect — in the
    simulator runtime's form ([c_auto]) and the pass's own form
    ([c_auto_raw], which the native backend's emitter consumes). *)
type compiled = {
  c_prog : Ast.program;
  c_auto : (string * Gpusim.Device.auto_param list) list;
  c_auto_raw : (string * Dpopt.Aggregation.auto_param list) list;
}

(** A program transformer under test. [v_opts] is the pipeline combination
    when the variant is an honest pipeline run, [None] for custom (e.g.
    deliberately broken) compilers; the opts-specific launch-metric
    invariants are only asserted when it is known. *)
type variant = {
  v_label : string;
  v_opts : Dpopt.Pipeline.options option;
  v_compile : Ast.program -> compiled;
}

(* The adapter from the aggregation pass's allocation specs to the
   runtime's (same as Benchmarks.Bench_common.to_device_auto, duplicated so
   difftest does not pull the benchmark suite in). *)
let to_device_auto (aps : (string * Dpopt.Aggregation.auto_param list) list) :
    (string * Gpusim.Device.auto_param list) list =
  List.map
    (fun (k, l) ->
      ( k,
        List.map
          (fun (ap : Dpopt.Aggregation.auto_param) ->
            {
              Gpusim.Device.ap_name = ap.ap_name;
              ap_elems =
                (fun ~grid:(gx, gy, gz) ~block:(bx, by, bz) ->
                  ap.ap_elems ~grid_blocks:(gx * gy * gz)
                    ~block_threads:(bx * by * bz));
            })
          l ))
    aps

(** [pipeline_variant label opts] — an honest pipeline run at [opts]. *)
let pipeline_variant (label, opts) : variant =
  {
    v_label = label;
    v_opts = Some opts;
    v_compile =
      (fun prog ->
        let r = Dpopt.Pipeline.run ~opts prog in
        {
          c_prog = r.prog;
          c_auto = to_device_auto r.auto_params;
          c_auto_raw = r.auto_params;
        });
  }

(** The default variant set: the 2^3 pass combinations at small knob values
    (so thresholding actually serializes some sites and keeps others), plus
    extra aggregation granularities beyond the block default. [with_*]
    toggles restrict which passes participate (the [dpfuzz --passes]
    flag). *)
let default_variants ?(threshold = 9) ?(cfactor = 3)
    ?(with_thresholding = true) ?(with_coarsening = true)
    ?(with_aggregation = true) () : variant list =
  let base =
    Dpopt.Pipeline.enumerate ~threshold ~cfactor
      ~granularity:Dpopt.Aggregation.Block ~with_thresholding
      ~with_coarsening ~with_aggregation ()
  in
  let mk = Dpopt.Pipeline.make in
  let extra =
    if not with_aggregation then []
    else
      [
        ("CDP+A[warp]", mk ~granularity:Dpopt.Aggregation.Warp ());
        ("CDP+A[mb2]", mk ~granularity:(Dpopt.Aggregation.Multi_block 2) ());
        ("CDP+A[grid]", mk ~granularity:Dpopt.Aggregation.Grid ());
        ("CDP+A[block,agg_th3]",
         mk ~granularity:Dpopt.Aggregation.Block ~agg_threshold:3 ());
      ]
      @
      if with_thresholding && with_coarsening then
        [
          ("CDP+T+C+A[mb3]",
           mk ~threshold:17 ~cfactor:4
             ~granularity:(Dpopt.Aggregation.Multi_block 3) ());
        ]
      else []
  in
  List.map pipeline_variant (base @ extra)

(** {1 Deliberately broken variants}

    Used by the oracle's own sanity tests and [dpfuzz --inject-bug]: a
    miscompiling pass the oracle {e must} catch and shrink. *)

(** Coarsening that drops the remainder iterations of the grid-stride
    coarsening loop: each coarsened block only executes its {e first}
    original block's work, so whenever the original grid has more blocks
    than the coarsened one, the tail blocks' elements are silently never
    processed. *)
let broken_coarsening ?(cfactor = 2) () : variant =
  let opts = Dpopt.Pipeline.make ~cfactor () in
  let break_stmt s =
    match s.Ast.sdesc with
    | Ast.For
        ( init,
          Some (Ast.Binop (Ast.Lt, Ast.Var bx, Ast.Member (Ast.Var _, "x"))),
          (Some step as stepo),
          body )
      when (match step.Ast.sdesc with
           | Ast.Assign
               ( Ast.Var bx',
                 Ast.Binop
                   (Ast.Add, Ast.Var bx'', Ast.Member (Ast.Var "gridDim", "x"))
               ) ->
               bx' = bx && bx'' = bx
           | _ -> false) ->
        (* run the loop exactly once: bx starts at blockIdx.x and the first
           stride always exceeds blockIdx.x + 1 *)
        [
          {
            s with
            Ast.sdesc =
              Ast.For
                ( init,
                  Some
                    (Ast.Binop
                       ( Ast.Lt,
                         Ast.Var bx,
                         Ast.Binop
                           ( Ast.Add,
                             Ast.Member (Ast.Var "blockIdx", "x"),
                             Ast.Int_lit 1 ) )),
                  stepo,
                  body );
          };
        ]
    | _ -> [ s ]
  in
  {
    v_label = Fmt.str "CDP+C%d[broken: drops remainder iterations]" cfactor;
    v_opts = None;
    v_compile =
      (fun prog ->
        let r = Dpopt.Pipeline.run ~opts prog in
        let prog =
          List.map
            (fun (f : Ast.func) ->
              { f with f_body = Ast_util.map_stmts ~stmt:break_stmt f.f_body })
            r.prog
        in
        {
          c_prog = prog;
          c_auto = to_device_auto r.auto_params;
          c_auto_raw = r.auto_params;
        });
  }

(** A memory-neutral miscompile only the sanitizer can see: every kernel
    gains a prologue in which all threads of the block store their own id
    to the same [__shared__] scratch cell with no ordering barrier.
    Driver buffers and launch metrics are untouched, so the plain oracle
    passes this variant; [check ~sanitize:true] must catch the
    write-write race (and shrink the case). *)
let racy_injection () : variant =
  let prologue =
    [
      Ast.stmt (Ast.Decl_shared (Ast.TInt, "dpfuzz_scratch", Ast.Int_lit 1));
      Ast.stmt
        (Ast.Assign
           ( Ast.Index (Ast.Var "dpfuzz_scratch", Ast.Int_lit 0),
             Ast.Member (Ast.Var "threadIdx", "x") ));
    ]
  in
  {
    v_label = "CDP[racy: unsynchronized shared scratch]";
    v_opts = Some Dpopt.Pipeline.none;
    v_compile =
      (fun prog ->
        let r = Dpopt.Pipeline.run ~opts:Dpopt.Pipeline.none prog in
        let prog =
          List.map
            (fun (f : Ast.func) ->
              if f.f_kind <> Ast.Global then f
              else { f with f_body = prologue @ f.f_body })
            r.prog
        in
        {
          c_prog = prog;
          c_auto = to_device_auto r.auto_params;
          c_auto_raw = r.auto_params;
        });
  }

(** The cross-{e block} sibling of {!racy_injection}, for the native
    backend: every kernel that takes the driver's [acc] accumulator gains
    a prologue loop of {e non-atomic} read-modify-write increments on
    [acc[3]]. The simulator's deterministic scheduler produces one
    reproducible count every run; under the native backend's true domain
    parallelism the lost-update count varies from run to run, so repeated
    native executions diverge — the effect [check ~native:true] and
    [dpfuzz --backend native] exist to expose. ({!racy_injection}'s
    intra-block shared-scratch race stays {e deterministic} natively,
    because a block's threads are cooperative fibers run in thread-id
    order between barriers; only cross-block contention exercises real
    parallelism.) *)
let racy_global_injection ?(iters = 400) () : variant =
  let i = "dpfuzz_racy_i" in
  let acc3 = Ast.Index (Ast.Var "acc", Ast.Int_lit 3) in
  let prologue =
    [
      Ast.stmt
        (Ast.For
           ( Some (Ast.stmt (Ast.Decl (Ast.TInt, i, Some (Ast.Int_lit 0)))),
             Some (Ast.Binop (Ast.Lt, Ast.Var i, Ast.Int_lit iters)),
             Some
               (Ast.stmt
                  (Ast.Assign
                     (Ast.Var i, Ast.Binop (Ast.Add, Ast.Var i, Ast.Int_lit 1)))),
             [
               Ast.stmt
                 (Ast.Assign (acc3, Ast.Binop (Ast.Add, acc3, Ast.Int_lit 1)));
             ] ));
    ]
  in
  let takes_acc (f : Ast.func) =
    List.exists (fun (p : Ast.param) -> p.Ast.p_name = "acc") f.f_params
  in
  {
    v_label = "CDP[racy: cross-block unsynchronized global RMW]";
    v_opts = Some Dpopt.Pipeline.none;
    v_compile =
      (fun prog ->
        let r = Dpopt.Pipeline.run ~opts:Dpopt.Pipeline.none prog in
        let prog =
          List.map
            (fun (f : Ast.func) ->
              if f.f_kind <> Ast.Global || not (takes_acc f) then f
              else { f with f_body = prologue @ f.f_body })
            r.prog
        in
        {
          c_prog = prog;
          c_auto = to_device_auto r.auto_params;
          c_auto_raw = r.auto_params;
        });
  }

(** {1 Simulator configurations} *)

(** Deterministic device models the oracle replays each variant under. The
    simulator is a deterministic discrete-event machine, so any output
    difference across configurations of the {e same} program would itself
    be a bug; the oracle compares each variant against the baseline under
    the same configuration. *)
let sim_configs : (string * Gpusim.Config.t) list =
  [
    ("unit", Gpusim.Config.test_config);
    ("volta", Gpusim.Config.default);
    ( "one-sm",
      { Gpusim.Config.test_config with num_sms = 1; sm_warp_parallelism = 1 }
    );
  ]

(** {1 Running and comparing} *)

(** What the oracle observes from one run. *)
type observation = {
  obs_mem : Gpusim.Value.t array list;  (** Driver buffers, bit-level. *)
  obs_device_launches : int;
  obs_host_launches : int;
  obs_serialized : int;
  obs_races : string list;
      (** Dynamic race reports; only populated when the simulator runs
          with {!Gpusim.Config.t.check} set (the oracle's sanitize mode). *)
}

(** [run ~cfg compiled case] — load, drive and observe one variant. The
    driver allocates the workload buffers first (so their ids are dense
    from 0), maps the parent's leading parameters by name, and snapshots
    exactly the driver-allocated buffers afterwards. May raise. *)
let run ~cfg (c : compiled) (case : Gen.case) : observation =
  let dev = Gpusim.Device.create ~cfg () in
  Gpusim.Device.load_program dev c.c_prog ~auto_params:c.c_auto;
  let nv = Array.length case.degs in
  let rows = Gen.rows_of case in
  let d_rows = Gpusim.Device.alloc_ints dev rows in
  let d_data = Gpusim.Device.alloc_ints dev (Gen.data_of case) in
  let d_acc = Gpusim.Device.alloc_int_zeros dev 4 in
  let user_buffers = Gpusim.Device.buffer_count dev in
  let parent = Ast.find_func_exn c.c_prog "parent" in
  let args =
    List.filter_map
      (fun (p : Ast.param) ->
        match p.p_name with
        | "rows" -> Some (Gpusim.Value.Ptr d_rows)
        | "data" -> Some (Gpusim.Value.Ptr d_data)
        | "acc" -> Some (Gpusim.Value.Ptr d_acc)
        | "nv" -> Some (Gpusim.Value.Int nv)
        | _ -> None (* compiler-appended parameters: runtime-allocated *))
      parent.f_params
  in
  let wide = List.exists (fun (p : Ast.param) -> p.p_name = "nv") parent.f_params in
  let grid = if wide then ((nv + 31) / 32, 1, 1) else (1, 1, 1) in
  let block = if wide then (32, 1, 1) else (1, 1, 1) in
  Gpusim.Device.launch dev ~kernel:"parent" ~grid ~block ~args;
  ignore (Gpusim.Device.sync dev);
  let m = Gpusim.Device.metrics dev in
  {
    obs_mem = Gpusim.Device.dump_memory dev ~first:user_buffers;
    obs_device_launches = m.device_launches;
    obs_host_launches = m.host_launches;
    obs_serialized = m.serialized_launches;
    obs_races = m.race_reports;
  }

(* First bit-level difference between two memory snapshots, if any. *)
let mem_diff (base : Gpusim.Value.t array list) (got : Gpusim.Value.t array list) =
  let rec go i bs gs =
    match (bs, gs) with
    | [], [] -> None
    | b :: bs, g :: gs ->
        if Array.length b <> Array.length g then
          Some (Fmt.str "buffer %d: size %d vs %d" i (Array.length b)
                  (Array.length g))
        else (
          match
            Array.to_seq (Array.mapi (fun j x -> (j, x)) b)
            |> Seq.filter (fun (j, x) -> g.(j) <> x)
            |> Seq.uncons
          with
          | Some ((j, x), _) ->
              Some
                (Fmt.str "buffer %d element %d: baseline %a, got %a" i j
                   Gpusim.Value.pp x Gpusim.Value.pp g.(j))
          | None -> go (i + 1) bs gs)
    | _ ->
        Some
          (Fmt.str "driver buffer count differs: %d vs %d" (List.length base)
             (List.length got))
  in
  go 0 base got

(* Launch-metric invariants of a variant against the baseline. *)
let metric_diff ~(v : variant) ~(base : observation) (got : observation) =
  let t_on, c_on, a_on =
    match v.v_opts with
    | None -> (true, true, true) (* unknown compiler: only universal checks *)
    | Some o ->
        (o.thresholding <> None, o.coarsening <> None, o.aggregation <> None)
  in
  if (not t_on) && got.obs_serialized <> 0 then
    Some
      (Fmt.str "serialized %d launches with thresholding off"
         got.obs_serialized)
  else if got.obs_device_launches > base.obs_device_launches then
    Some
      (Fmt.str "issued more device launches than baseline: %d > %d"
         got.obs_device_launches base.obs_device_launches)
  else
    match v.v_opts with
    | Some _ when t_on && (not c_on) && not a_on ->
        if
          got.obs_serialized + got.obs_device_launches
          <> base.obs_device_launches
        then
          Some
            (Fmt.str
               "thresholding does not conserve launches: %d serialized + %d \
                issued <> %d baseline"
               got.obs_serialized got.obs_device_launches
               base.obs_device_launches)
        else None
    | Some _ when c_on && (not t_on) && not a_on ->
        if got.obs_device_launches <> base.obs_device_launches then
          Some
            (Fmt.str "coarsening changed the launch count: %d <> %d"
               got.obs_device_launches base.obs_device_launches)
        else None
    | _ -> None

(** {1 The native axis}

    With [check ~native:true] every variant inside the native backend's
    supported subset is additionally transpiled to parallel OCaml
    ({!Native.Emit}), compiled and executed on host domains
    ({!Native.Build}), and its memory dump is required to be
    byte-identical to the simulated baseline's. Launch metrics are
    exempt — the native runtime has no cycle model — so the axis checks
    {e memory equivalence only}. Variants the emitter rejects (warp/grid
    aggregation granularities, [__threadfence]) are skipped: rejection is
    pinned separately by the negative tests. *)

(* The oracle's host driver (see [run]) as a backend-neutral spec, so the
   emitted OCaml driver performs the same allocations and launch. *)
let native_host (prog : Ast.program) (case : Gen.case) : Native.Hostspec.t =
  let nv = Array.length case.degs in
  let parent = Ast.find_func_exn prog "parent" in
  let args =
    List.filter_map
      (fun (p : Ast.param) ->
        match p.p_name with
        | "rows" -> Some (Native.Hostspec.A_buf 0)
        | "data" -> Some (Native.Hostspec.A_buf 1)
        | "acc" -> Some (Native.Hostspec.A_buf 2)
        | "nv" -> Some (Native.Hostspec.A_int nv)
        | _ -> None)
      parent.f_params
  in
  let wide =
    List.exists (fun (p : Ast.param) -> p.p_name = "nv") parent.f_params
  in
  let grid = if wide then ((nv + 31) / 32, 1, 1) else (1, 1, 1) in
  let block = if wide then (32, 1, 1) else (1, 1, 1) in
  {
    Native.Hostspec.ops =
      [
        Native.Hostspec.Alloc_ints (Gen.rows_of case);
        Native.Hostspec.Alloc_ints (Gen.data_of case);
        Native.Hostspec.Alloc_int_zeros 4;
        Native.Hostspec.Launch { kernel = "parent"; grid; block; args };
        Native.Hostspec.Sync;
      ];
  }

(** {1 The check} *)

type failure = {
  f_variant : string;
  f_config : string;
  f_native : bool;
      (** The failure came from the native backend's run, not the
          simulator or the static sanitizer. *)
  f_reason : string;
}

let pp_failure ppf f =
  Fmt.pf ppf "variant %s under config %s%s: %s" f.f_variant f.f_config
    (if f.f_native then ", native backend" else "")
    f.f_reason

(** Outcome of checking one case. [Invalid] means the {e generator} (or a
    shrinking step) produced a program the baseline itself cannot compile
    or run — not a transformation bug; shrinkers treat it as "reject this
    candidate". *)
type outcome = Pass | Fail of failure | Invalid of string

let baseline_variant =
  pipeline_variant (Dpopt.Pipeline.label Dpopt.Pipeline.none, Dpopt.Pipeline.none)

(* One native executable bundling the baseline and every emitter-supported
   variant; each dump section must equal the simulated baseline's dump.
   Called only after the simulator-side checks passed, so the baseline is
   known to compile and run. *)
let check_native ~(compiled : (variant * (compiled, exn) result) list)
    ~(base_compiled : compiled) (case : Gen.case) : failure option =
  match Native.Emit.supported base_compiled.c_prog with
  | Some _ -> None (* the case itself is outside the native subset *)
  | None -> (
      let host = native_host base_compiled.c_prog case in
      let units =
        List.filter_map
          (fun (v, c) ->
            match c with
            | Error _ -> None
            | Ok c when Native.Emit.supported c.c_prog <> None -> None
            | Ok c ->
                Some
                  ( v,
                    {
                      Native.Emit.vu_label = v.v_label;
                      vu_prog = c.c_prog;
                      vu_autos = c.c_auto_raw;
                    } ))
          ((baseline_variant, Ok base_compiled) :: compiled)
      in
      let fail v_label reason =
        Some
          {
            f_variant = v_label;
            f_config = "(native)";
            f_native = true;
            f_reason = reason;
          }
      in
      match
        Native.Build.compile_and_run
          ~source:(Native.Emit.unit_source ~variants:(List.map snd units) ~host)
          ()
      with
      | exception exn ->
          fail (List.hd units |> fun (v, _) -> v.v_label)
            (Fmt.str "native build/run raised: %s" (Printexc.to_string exn))
      | out ->
          let secs = Native.Build.sections out in
          let sim_dump =
            Native.Hostspec.render_dump
              (Native.Hostspec.run_sim ~cfg:Gpusim.Config.test_config
                 base_compiled.c_prog ~auto_params:base_compiled.c_auto_raw
                 host)
          in
          List.find_map
            (fun ((v : variant), (u : Native.Emit.variant_unit)) ->
              match List.assoc_opt u.vu_label secs with
              | None -> fail v.v_label "native run produced no dump section"
              | Some native when String.equal native sim_dump -> None
              | Some native ->
                  fail v.v_label
                    (Fmt.str
                       "native memory differs from simulated baseline:@.-- \
                        native --@.%s-- simulated --@.%s"
                       native sim_dump))
            units)

(** [check ?sanitize ?native ?variants ?configs case] — compile every
    variant once, then for each configuration run the baseline and every
    variant, and compare. Returns the first failure found.

    With [~sanitize:true] (dpfuzz's [--check] mode) the oracle also
    requires every program — the fuzzed input and every variant's output
    — to be sanitizer-clean: no static divergence/bounds errors
    ({!Analysis.Static}) and no dynamic races (every run replays with
    {!Gpusim.Config.t.check} set). A racy or divergent variant fails even
    when its device memory is bit-identical to the baseline.

    With [~native:true] (dpfuzz's [--backend native]) each supported
    variant is also transpiled, compiled and run as parallel OCaml and
    its memory dump compared against the simulated baseline — slow (a
    nested dune build per case) but a true-parallelism oracle. *)
let check ?(sanitize = false) ?(native = false)
    ?(variants = default_variants ()) ?(configs = sim_configs)
    (case : Gen.case) : outcome =
  let configs =
    if sanitize then
      List.map
        (fun (n, c) -> (n, { c with Gpusim.Config.check = true }))
        configs
    else configs
  in
  match
    let prog = Gen.build case in
    Typecheck.check prog;
    (* the reproducer is reported as source text, so the program must also
       survive a print/parse round trip *)
    Parser.program (Pretty.program prog)
  with
  | exception exn -> Invalid (Printexc.to_string exn)
  | prog -> (
      match baseline_variant.v_compile prog with
      | exception exn -> Invalid (Printexc.to_string exn)
      | base_compiled -> (
          let compiled =
            List.map
              (fun v ->
                (v, try Ok (v.v_compile prog) with exn -> Error exn))
              variants
          in
          (* Sanitize mode, static half: the fuzzed program and every
             variant's output must be free of divergence/bounds errors.
             Config-independent, so checked once, up front. *)
          let static_fail =
            if not sanitize then None
            else
              let first_error p =
                match Analysis.Static.(errors (check_program p)) with
                | [] -> None
                | d :: _ -> Some (Fmt.str "%a" Analysis.Static.pp_diag d)
              in
              match first_error prog with
              | Some d ->
                  Some
                    {
                      f_variant = baseline_variant.v_label;
                      f_config = "(static)";
                      f_native = false;
                      f_reason = "static sanitizer: " ^ d;
                    }
              | None ->
                  List.find_map
                    (fun (v, c) ->
                      match c with
                      | Error _ -> None (* reported as a compile failure below *)
                      | Ok c ->
                          Option.map
                            (fun d ->
                              {
                                f_variant = v.v_label;
                                f_config = "(static)";
                                f_native = false;
                                f_reason = "static sanitizer: " ^ d;
                              })
                            (first_error c.c_prog))
                    compiled
          in
          let check_config (cfg_label, cfg) =
            match run ~cfg base_compiled case with
            | exception exn ->
                Some (`Invalid (Fmt.str "baseline run raised under %s: %s"
                                  cfg_label (Printexc.to_string exn)))
            | base when base.obs_races <> [] ->
                Some
                  (`Fail
                     {
                       f_variant = baseline_variant.v_label;
                       f_config = cfg_label;
                       f_native = false;
                       f_reason = "race detected: " ^ List.hd base.obs_races;
                     })
            | base ->
                List.find_map
                  (fun (v, c) ->
                    let fail reason =
                      Some
                        (`Fail
                           {
                             f_variant = v.v_label;
                             f_config = cfg_label;
                             f_native = false;
                             f_reason = reason;
                           })
                    in
                    match c with
                    | Error exn ->
                        fail
                          (Fmt.str "compilation raised: %s"
                             (Printexc.to_string exn))
                    | Ok c -> (
                        match run ~cfg c case with
                        | exception exn ->
                            fail
                              (Fmt.str "execution raised: %s"
                                 (Printexc.to_string exn))
                        | got -> (
                            match mem_diff base.obs_mem got.obs_mem with
                            | Some d -> fail ("device memory differs: " ^ d)
                            | None -> (
                                match metric_diff ~v ~base got with
                                | Some d -> fail ("launch metrics: " ^ d)
                                | None ->
                                    if got.obs_races <> [] then
                                      fail
                                        ("race detected: "
                                        ^ List.hd got.obs_races)
                                    else None))))
                  compiled
          in
          match static_fail with
          | Some f -> Fail f
          | None -> (
              match List.find_map check_config configs with
              | Some (`Fail f) -> Fail f
              | Some (`Invalid msg) -> Invalid msg
              | None -> (
                  if not native then Pass
                  else
                    match check_native ~compiled ~base_compiled case with
                    | Some f -> Fail f
                    | None -> Pass))))
