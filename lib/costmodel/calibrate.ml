(** Calibration: fit the model's coefficient vector against simulator
    measurements by weighted non-negative least squares.

    Samples pair a term vector (from {!Feature}) with a measured simulated
    time ({!Benchmarks.Bench_common.run_variant}). The fit minimizes
    Σ wⱼ (yⱼ − β·xⱼ)² with wⱼ = 1/yⱼ² — i.e. relative error, so cheap and
    expensive benchmarks count equally — under β ≥ 0, by cyclic projected
    coordinate descent on the normal equations (deterministic, no
    dependencies, converges in a few hundred sweeps for ~10 terms). *)

type sample = {
  s_bench : string;
  s_dataset : string;
  s_label : string;  (** Pass-combination label. *)
  s_terms : float array;
  s_measured : float;  (** Simulated cycles. *)
}

(* One sample per pass combination at threshold 64: features, and a
   simulator run. *)
let collect ?cfg ~cfactor ~granularity (spec : Benchmarks.Bench_common.spec)
    : sample list =
  List.map
    (fun (label, opts) ->
      let f = Feature.of_spec ?cfg spec ~opts ~label () in
      let _, time, _ =
        Benchmarks.Bench_common.run_variant ?cfg spec (Cdp opts)
      in
      {
        s_bench = spec.name;
        s_dataset = spec.dataset;
        s_label = label;
        s_terms = Model.terms f;
        s_measured = time;
      })
    (Dpopt.Pipeline.enumerate ~threshold:64 ~cfactor ~granularity ())

(** The standard calibration corpus for one spec: the 8 pass combinations
    at the default knobs (threshold 64, cfactor 8, block granularity)
    plus the same combinations at cfactor 1 / grid granularity, so the
    fit sees both an aggregation-heavy and a launch-heavy operating
    point. [Table.current] is fitted on exactly this corpus over the
    whole registry. *)
let collect_corpus ?cfg (spec : Benchmarks.Bench_common.spec) : sample list =
  collect ?cfg ~cfactor:8 ~granularity:Dpopt.Aggregation.Block spec
  @ collect ?cfg ~cfactor:1 ~granularity:Dpopt.Aggregation.Grid spec

let fit ?(iters = 500) (samples : sample list) : float array =
  let n = Model.n_terms in
  let xs = List.map (fun s -> s.s_terms) samples in
  List.iter
    (fun x ->
      if Array.length x <> n then
        invalid_arg "Calibrate.fit: term vector of wrong length")
    xs;
  (* weighted Gram matrix and right-hand side *)
  let g = Array.make_matrix n n 0.0 in
  let b = Array.make n 0.0 in
  List.iter
    (fun s ->
      let y = s.s_measured in
      if y > 0.0 then begin
        let w = 1.0 /. (y *. y) in
        let x = s.s_terms in
        for i = 0 to n - 1 do
          b.(i) <- b.(i) +. (w *. x.(i) *. y);
          for j = 0 to n - 1 do
            g.(i).(j) <- g.(i).(j) +. (w *. x.(i) *. x.(j))
          done
        done
      end)
    samples;
  let beta = Array.make n 0.0 in
  for _ = 1 to iters do
    for k = 0 to n - 1 do
      if g.(k).(k) > 0.0 then begin
        let acc = ref b.(k) in
        for l = 0 to n - 1 do
          if l <> k then acc := !acc -. (g.(k).(l) *. beta.(l))
        done;
        beta.(k) <- Float.max 0.0 (!acc /. g.(k).(k))
      end
    done
  done;
  beta

let fit_coeffs ?iters ~version samples : Model.coeffs =
  { Model.version; beta = fit ?iters samples }

let predict_sample (c : Model.coeffs) (s : sample) : float =
  let acc = ref 0.0 in
  for i = 0 to Model.n_terms - 1 do
    acc := !acc +. (c.Model.beta.(i) *. s.s_terms.(i))
  done;
  !acc

(** Render a coefficient vector as the body of [Table.current] — paste the
    output into [lib/costmodel/table.ml] after refitting. *)
let print_table ppf (c : Model.coeffs) =
  Fmt.pf ppf "let current : Model.coeffs =@.  {@.    Model.version = %d;@."
    c.Model.version;
  Fmt.pf ppf "    beta =@.      [|@.";
  Array.iteri
    (fun i v -> Fmt.pf ppf "        %.6g (* %s *);@." v Model.term_names.(i))
    c.Model.beta;
  Fmt.pf ppf "      |];@.  }@."
