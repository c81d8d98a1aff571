(** The combined compiler framework (paper Section VI, Fig. 8).

    Each optimization is an independent source-to-source pass; this module
    applies any requested combination in the canonical order

    {v thresholding -> coarsening -> aggregation v}

    for the reasons the paper gives: thresholding must extract the desired
    thread count before coarsening rewrites the grid dimension; thresholding
    before aggregation keeps small grids out of the aggregated launch; and
    coarsening before aggregation places the disaggregation logic outside
    the coarsening loop so it is amortized over several original blocks. *)

open Minicu

type options = {
  thresholding : Thresholding.options option;
  coarsening : Coarsening.options option;
  aggregation : Aggregation.options option;
}

let none = { thresholding = None; coarsening = None; aggregation = None }

(** Convenience constructor mirroring the paper's CDP+T+C+A notation. *)
let make ?threshold ?cfactor ?granularity ?agg_threshold () =
  {
    thresholding =
      Option.map (fun threshold -> { Thresholding.threshold }) threshold;
    coarsening = Option.map (fun cfactor -> { Coarsening.cfactor }) cfactor;
    aggregation =
      Option.map
        (fun granularity -> { Aggregation.granularity; agg_threshold })
        granularity;
  }

(** Short tag such as ["CDP+T+C+A"] describing the enabled passes. *)
let label opts =
  let parts =
    List.filter_map Fun.id
      [
        Option.map (fun _ -> "T") opts.thresholding;
        Option.map (fun _ -> "C") opts.coarsening;
        Option.map (fun _ -> "A") opts.aggregation;
      ]
  in
  if parts = [] then "CDP" else "CDP+" ^ String.concat "+" parts

(** [enumerate ()] — every combination of the three passes instantiated at
    the given knob values, with its {!label}. By default all [2^3] subsets
    are produced (the paper's Fig. 9 x-axis); setting a [with_*] toggle to
    false pins that pass off, halving the set. The all-off combination
    (["CDP"]) always comes first, so callers can treat the head as the
    untransformed baseline. Used by the differential-testing oracle
    ({e lib/difftest}) and the harness. *)
let enumerate ?(threshold = 32) ?(cfactor = 4)
    ?(granularity = Aggregation.Block) ?agg_threshold
    ?(with_thresholding = true) ?(with_coarsening = true)
    ?(with_aggregation = true) () : (string * options) list =
  let toggles enabled = if enabled then [ false; true ] else [ false ] in
  List.concat_map
    (fun t ->
      List.concat_map
        (fun c ->
          List.map
            (fun a ->
              let opts =
                make
                  ?threshold:(if t then Some threshold else None)
                  ?cfactor:(if c then Some cfactor else None)
                  ?granularity:(if a then Some granularity else None)
                  ?agg_threshold:(if a then agg_threshold else None)
                  ()
              in
              (label opts, opts))
            (toggles with_aggregation))
        (toggles with_coarsening))
    (toggles with_thresholding)

type result = {
  prog : Ast.program;
  auto_params : (string * Aggregation.auto_param list) list;
      (** Runtime-allocated trailing parameters per transformed parent
          kernel (empty unless aggregation ran). *)
  threshold_reports : Thresholding.site_report list;
  coarsen_reports : Coarsening.site_report list;
  agg_reports : Aggregation.site_report list;
}

(* ---- cache-keyed stages --------------------------------------------- *)

type pass_report =
  | Threshold_reports of Thresholding.site_report list
  | Coarsen_reports of Coarsening.site_report list
  | Agg_reports of Aggregation.site_report list

type stage_output = {
  so_prog : Ast.program;
  so_auto_params : (string * Aggregation.auto_param list) list;
      (** Non-empty only for the aggregation stage. *)
  so_report : pass_report;
}

type stage = {
  st_name : string;  (** ["thresholding"] / ["coarsening"] / ["aggregation"]. *)
  st_fingerprint : string;
      (** Canonical rendering of this pass's normalized knob values: equal
          fingerprints guarantee [st_apply] computes the same function.
          Combined with a content digest of the input program, this is the
          stage's memoization key (see {e lib/serve}). *)
  st_apply : Ast.program -> stage_output;
      (** Applies the pass and typechecks its output, so ill-formed
          intermediate code fails loudly at the stage that produced it. *)
}

(* The aggregation threshold only reaches warp/block codegen (Section
   V-B); at multi-block/grid granularity the pass ignores it, so the
   fingerprint must not split on it — two option records that differ only
   there produce byte-identical programs and must share cache entries. *)
let agg_fingerprint (o : Aggregation.options) =
  let thr =
    match (o.granularity, o.agg_threshold) with
    | (Aggregation.Warp | Aggregation.Block), Some t -> string_of_int t
    | _ -> "-"
  in
  "gran=" ^ Aggregation.granularity_to_string o.granularity ^ ";aggthr=" ^ thr

(** [stages opts] — the enabled passes in canonical T → C → A order, each
    with its memoization fingerprint. {!run} folds these in order; cache
    layers (the {e dpoptd} compile service) memoize at each boundary. *)
let stages (opts : options) : stage list =
  List.filter_map Fun.id
    [
      Option.map
        (fun (o : Thresholding.options) ->
          {
            st_name = "thresholding";
            st_fingerprint = "threshold=" ^ string_of_int o.threshold;
            st_apply =
              (fun prog ->
                let r = Thresholding.transform ~opts:o prog in
                Typecheck.check r.prog;
                {
                  so_prog = r.prog;
                  so_auto_params = [];
                  so_report = Threshold_reports r.reports;
                });
          })
        opts.thresholding;
      Option.map
        (fun (o : Coarsening.options) ->
          {
            st_name = "coarsening";
            st_fingerprint = "cfactor=" ^ string_of_int o.cfactor;
            st_apply =
              (fun prog ->
                let r = Coarsening.transform ~opts:o prog in
                Typecheck.check r.prog;
                {
                  so_prog = r.prog;
                  so_auto_params = [];
                  so_report = Coarsen_reports r.reports;
                });
          })
        opts.coarsening;
      Option.map
        (fun (o : Aggregation.options) ->
          {
            st_name = "aggregation";
            st_fingerprint = agg_fingerprint o;
            st_apply =
              (fun prog ->
                let r = Aggregation.transform ~opts:o prog in
                Typecheck.check r.prog;
                {
                  so_prog = r.prog;
                  so_auto_params = r.auto_params;
                  so_report = Agg_reports r.reports;
                });
          })
        opts.aggregation;
    ]

(** [fingerprint_of_stages ss] — the stages' names and fingerprints,
    joined: ["id"] for none. *)
let fingerprint_of_stages = function
  | [] -> "id"
  | ss ->
      String.concat "|"
        (List.map (fun st -> st.st_name ^ ":" ^ st.st_fingerprint) ss)

(** [fingerprint opts] — canonical normalized rendering of the whole
    option record: two records with equal fingerprints run byte-identical
    pipelines. Disabled passes contribute nothing; ignored knobs (the
    aggregation threshold at multi-block/grid granularity) are dropped. *)
let fingerprint (opts : options) : string = fingerprint_of_stages (stages opts)

let init prog =
  {
    prog;
    auto_params = [];
    threshold_reports = [];
    coarsen_reports = [];
    agg_reports = [];
  }

(* Fold a stage output into the accumulating result. *)
let absorb (r : result) (so : stage_output) : result =
  let r = { r with prog = so.so_prog } in
  match so.so_report with
  | Threshold_reports reps -> { r with threshold_reports = reps }
  | Coarsen_reports reps -> { r with coarsen_reports = reps }
  | Agg_reports reps ->
      { r with agg_reports = reps; auto_params = so.so_auto_params }

(** [run ?opts prog] applies the enabled passes in canonical order. The
    input and output programs both typecheck; intermediate results are
    checked too, so a pass that produces ill-formed code fails loudly here
    rather than at simulation time. Implemented as a fold over {!stages};
    callers that memoize at stage boundaries fold the same list and are
    byte-identical to this uncached path. *)
let run ?(opts = none) (prog : Ast.program) : result =
  Typecheck.check prog;
  List.fold_left
    (fun r st -> absorb r (st.st_apply r.prog))
    (init prog) (stages opts)

(** [run_source ?opts src] — parse, transform, and print back to source.
    The CLI entry point ({e dpoptc}) wraps this. *)
let run_source ?opts src =
  let prog = Parser.program src in
  let r = run ?opts prog in
  (Pretty.program r.prog, r)
