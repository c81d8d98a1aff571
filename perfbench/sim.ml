(** The three simulation workloads. A cell is one (benchmark, dataset,
    code version) run. Untraced, a cell is one [Harness.Experiment.run]
    call, as [runbench --sweep] makes it. Traced, the benchmark makes the
    calls [Experiment.run] makes (parse, passes, load, run, reference),
    one span per call. figures-small calls [Harness.Figures] and
    [Harness.Tuning] and sees their simulations through the spec's [run]
    closure, which it wraps. *)

module Bc = Benchmarks.Bench_common
module Experiment = Harness.Experiment
module Variant = Harness.Variant
module Device = Gpusim.Device

(** ["No CDP"] → ["nocdp"], ["CDP"] → ["cdp"], ["CDP+T+A"] → ["ta"]. *)
let version_key label =
  match String.split_on_char '+' label with
  | [ "No CDP" ] -> "nocdp"
  | [ "CDP" ] -> "cdp"
  | _ :: passes -> String.lowercase_ascii (String.concat "" passes)
  | [] -> label

let versions = Harness.Sweep.variants ()

type outcome = {
  fp : int;
  cycles : float;
  grids : int;
  launches : int;
  blocks : int;
  threads : int;
  sampled : bool;
}

let render o =
  Printf.sprintf "fp=%d cycles=%h grids=%d launches=%d blocks=%d threads=%d%s"
    o.fp o.cycles o.grids o.launches o.blocks o.threads
    (if o.sampled then " sampled" else "")

let of_measurement (m : Experiment.measurement) =
  {
    fp = m.fingerprint;
    cycles = m.time;
    grids = m.snap.grids_launched;
    launches = m.snap.device_launches;
    blocks = m.snap.blocks_executed;
    threads = m.snap.threads_executed;
    sampled = m.sampled;
  }

(* Run the loaded program inside a gpusim.run span and read its counts. *)
let simulate ~vkey (spec : Bc.spec) dev =
  let t0 = Device.time dev in
  let fp = Span.with_ "gpusim.run" ~tag:vkey (fun () -> spec.run dev) in
  let cycles = Device.time dev -. t0 in
  let m = Device.metrics dev in
  let o =
    {
      fp;
      cycles;
      grids = m.grids_launched;
      launches = m.device_launches;
      blocks = m.blocks_executed;
      threads = m.threads_executed;
      sampled = Gpusim.Metrics.sampled m;
    }
  in
  Span.count "gpusim.cycles" cycles;
  Span.count "gpusim.grids" (float_of_int o.grids);
  Span.count "gpusim.device_launches" (float_of_int o.launches);
  Span.count "gpusim.blocks" (float_of_int o.blocks);
  Span.count "gpusim.threads" (float_of_int o.threads);
  Span.count "gpusim.sampled_blocks" (float_of_int m.sampling.sampled_blocks);
  Span.count "gpusim.skipped_blocks" (float_of_int m.sampling.skipped_blocks);
  o

let parse src =
  let prog = Span.with_ "minicu.parse" (fun () -> Minicu.Parser.program src) in
  Span.count "minicu.nodes" (float_of_int (Minicu.Ast_util.program_size prog));
  prog

(* Pipeline.run, one span per stage: the input typecheck, then each pass
   (whose st_apply typechecks its own output). *)
let transform opts prog =
  Span.with_ "minicu.typecheck" (fun () -> Minicu.Typecheck.check prog);
  List.fold_left
    (fun (prog, auto) (st : Dpopt.Pipeline.stage) ->
      let so = Span.with_ ("dpopt." ^ st.st_name) (fun () -> st.st_apply prog) in
      let sites =
        match so.so_report with
        | Threshold_reports r -> List.length r
        | Coarsen_reports r -> List.length r
        | Agg_reports r -> List.length r
      in
      Span.count "dpopt.sites" (float_of_int sites);
      ( so.so_prog,
        match so.so_report with Agg_reports _ -> so.so_auto_params | _ -> auto ))
    (prog, []) (Dpopt.Pipeline.stages opts)

(* [Experiment.run ?cfg spec variant] made as separate calls, one span
   each; it validates unless [cfg] samples, as Experiment.run does. *)
let run_traced ?cfg (spec : Bc.spec) (variant : Variant.t) =
  let prog, auto =
    match variant with
    | No_cdp -> (parse spec.no_cdp_src, [])
    | Cdp opts -> transform opts (parse spec.cdp_src)
  in
  let dev =
    Span.with_ "gpusim.load" (fun () ->
        let dev = Device.create ?cfg () in
        Device.load_program dev prog ~auto_params:(Bc.to_device_auto auto);
        dev)
  in
  let o = simulate ~vkey:(version_key (Variant.label variant)) spec dev in
  let sampling = match cfg with Some c -> c.Gpusim.Config.sampling <> None | None -> false in
  if (not sampling) && o.fp <> Span.with_ "benchmarks.reference" spec.reference then
    raise (Experiment.Validation_failure "fingerprint differs from the reference");
  o

(** One cell: [Experiment.run ?cfg spec variant], or its calls one by one
    when tracing. *)
let run_cell ?cfg spec variant =
  if !Span.on then run_traced ?cfg spec variant
  else of_measurement (Experiment.run ?cfg spec variant)

(** The static cost-model score [runbench --sweep] attaches to CDP cells
    (as [Harness.Sweep] computes it). *)
let predict (spec : Bc.spec) = function
  | Variant.No_cdp -> nan
  | Cdp opts ->
      Span.with_ "costmodel.predict" (fun () ->
          Costmodel.Model.predict Costmodel.Table.current
            (Costmodel.Feature.of_spec spec ~opts ()))

let cell_key (spec : Bc.spec) label = Printf.sprintf "%s/%s/%s" spec.name spec.dataset label

let now = Span.now

(** Reference fingerprints, computed in set-up. *)
let references specs =
  List.map
    (fun (s : Bc.spec) -> Span.with_ "benchmarks.reference" s.reference)
    specs

(** [exact_ok ~reference o] — exact runs must reproduce the pure-OCaml
    reference; sampled runs (estimates by construction) must report a
    positive, finite time. *)
let exact_ok ~reference o =
  if o.sampled then Float.is_finite o.cycles && o.cycles > 0.0
  else o.fp = reference

(** [timed_op r ~key ~warm f] runs [f ()], which returns the operation's
    rendered output and whether it is correct, and records it. A raise is
    a failed operation. *)
let timed_op (r : Record.t) ~key ~warm f =
  let t0 = now () in
  match f () with
  | output, ok -> Record.op r ~key ~output ~ok ~latency:(now () -. t0) ~warm
  | exception e -> Record.raised r ~key ~latency:(now () -. t0) ~warm e

type matrix_cell = {
  index : int;
  spec : Bc.spec;
  reference : int;
  label : string;
  variant : Variant.t;
}

(** Evaluate [cells] under [cfg], [rounds] times; cells of later rounds
    are warm. With [~sweep] each CDP cell also gets its cost-model
    prediction, as in [runbench --sweep]. *)
let run_matrix ?cfg ~sweep ~rounds (r : Record.t) cells =
  for round = 1 to rounds do
    List.iter
      (fun c ->
        timed_op r ~key:(cell_key c.spec c.label) ~warm:(round > 1) (fun () ->
            Span.with_ "harness.cell" ~req:c.index (fun () ->
                let o = run_cell ?cfg c.spec c.variant in
                let pred = if sweep then predict c.spec c.variant else nan in
                ( (if Float.is_nan pred then render o
                   else Printf.sprintf "%s predicted=%h" (render o) pred),
                  exact_ok ~reference:c.reference o ))))
      cells
  done

(** The full matrix of a tier: every spec × [versions]. *)
let matrix specs refs ~versions =
  List.concat
    (List.mapi
       (fun i ((spec : Bc.spec), reference) ->
         List.mapi
           (fun j (label, variant) ->
             { index = (i * List.length versions) + j; spec; reference; label; variant })
           versions)
       (List.combine specs refs))

(* ---- figures-small -------------------------------------------------- *)

(* The combinations Fig. 10 re-tunes. *)
let fig10_combos =
  [
    { Variant.t = false; c = false; a = true };
    { Variant.t = true; c = false; a = true };
    { Variant.t = true; c = true; a = true };
  ]

let render_params p = Fmt.str "%a" Variant.pp_params p

let render_row (row : Harness.Figures.fig9_row) =
  String.concat " "
    (Printf.sprintf "nocdp=%h cdp=%h" row.no_cdp_time row.cdp_time
    :: List.map
         (fun (label, t, p) -> Printf.sprintf "%s=%h[%s]" label t (render_params p))
         row.combos)

let render_tuned (t : Harness.Tuning.tuned) =
  Printf.sprintf "best=[%s] %s" (render_params t.best_params) (render (of_measurement t.best))

(** Fig. 9 rows, then the Fig. 10 re-tuning, through [Harness.Figures] and
    [Harness.Tuning]. An operation is one of those calls; its output is
    what the call returns. A re-tune of a (spec, combination) the process
    has tuned before is warm. Each simulation the harness makes goes
    through the spec's [run], which the benchmark wraps: it checks the
    run against the reference and counts it, and a run whose outcome
    equals an earlier one of the same spec is a repeat. Each spec is
    wrapped once, so the harness sees the same spec on every call.
    Returns (runs, repeats). *)
let figures ~rounds (r : Record.t) specs refs =
  let outcomes = Hashtbl.create 256 and tuned = Hashtbl.create 16 in
  let runs = ref 0 and repeats = ref 0 in
  (* Per call: wrong runs so far, and the span tag of its runs. *)
  let wrong = ref 0 and vkey = ref "" in
  let wrap (spec : Bc.spec) reference =
    {
      spec with
      run =
        (fun dev ->
          let o = simulate ~vkey:!vkey spec dev in
          let id = (spec.name, spec.dataset, render o) in
          if Hashtbl.mem outcomes id then incr repeats else Hashtbl.add outcomes id ();
          incr runs;
          if not (exact_ok ~reference o) then incr wrong;
          o.fp);
      reference = (fun () -> Span.with_ "benchmarks.reference" spec.reference);
    }
  in
  let call ~name ~key ~tag ~warm f =
    wrong := 0;
    vkey := tag;
    timed_op r ~key ~warm (fun () ->
        let output = Span.with_ ("harness." ^ name) f in
        (output, !wrong = 0))
  in
  let wrapped = List.map2 wrap specs refs in
  for _ = 1 to rounds do
    List.iter
      (fun (s : Bc.spec) ->
        let id = (s.name, s.dataset) in
        call ~name:"fig9_row" ~tag:"fig9"
          ~key:(Printf.sprintf "fig9_row/%s/%s" s.name s.dataset)
          ~warm:(Hashtbl.mem tuned (id, "fig9_row"))
          (fun () ->
            let row = Harness.Figures.fig9_row s in
            Hashtbl.replace tuned (id, "fig9_row") ();
            List.iter (fun (label, _, _) -> Hashtbl.replace tuned (id, label) ()) row.combos;
            render_row row))
      wrapped;
    List.iter
      (fun (s : Bc.spec) ->
        List.iter
          (fun combo ->
            let label = Variant.combo_label combo in
            let id = (s.name, s.dataset) in
            call ~name:"tune" ~tag:(version_key label)
              ~key:(Printf.sprintf "tune/%s/%s/%s" s.name s.dataset label)
              ~warm:(Hashtbl.mem tuned (id, label))
              (fun () ->
                let t = Harness.Tuning.tune s combo in
                Hashtbl.replace tuned (id, label) ();
                render_tuned t))
          fig10_combos)
      wrapped
  done;
  (!runs, !repeats)
