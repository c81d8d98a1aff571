(** Full-registry sweep (see the interface). The layout work — building
    the cell list, regrouping results per benchmark, attaching speedups —
    happens in the calling domain; only {!Experiment.run_cells} fans out. *)

type cell = {
  sw_bench : string;
  sw_dataset : string;
  sw_variant : string;
  sw_time : float;
  sw_predicted : float;
  sw_fingerprint : int;
  sw_speedup_vs_cdp : float;
  sw_wall_s : float;
}

(* JSON/CSV artifact schema version; see README. v2 added the "kind"
   discriminator, the schema column in the CSV, and predicted_cycles. *)
let schema_version = 2

type t = {
  sw_size : Benchmarks.Registry.size;
  sw_jobs : int;
  sw_cells : cell list;
  sw_wall_parallel_s : float;
  sw_wall_sequential_est_s : float;
}

let variants () : (string * Variant.t) list =
  ("No CDP", Variant.No_cdp) :: Variant.power_set ()

(* Static model score for a cell; the model only covers CDP variants. *)
let predict spec = function
  | Variant.No_cdp -> nan
  | Variant.Cdp opts ->
      Costmodel.Model.predict Costmodel.Table.current
        (Costmodel.Feature.of_spec spec ~opts ())

let run ?(size = Benchmarks.Registry.Small) ?pool () : t =
  let specs = Benchmarks.Registry.all ~size () @ Benchmarks.Registry.road ~size () in
  let vars = variants () in
  let cells =
    List.concat_map
      (fun spec -> List.map (fun (_, v) -> Experiment.cell spec v) vars)
      specs
  in
  let t0 = Unix.gettimeofday () in
  let results =
    (* progress on stderr when interactive (off otherwise), so large-tier
       sweeps are observable without perturbing the deterministic stdout *)
    Progress.with_progress ~label:"sweep" ~total:(List.length cells)
      (fun progress -> Experiment.run_cells ?pool ~progress cells)
  in
  let wall_parallel = Unix.gettimeofday () -. t0 in
  (* regroup: [results] is in cell order, i.e. per spec, variant-major *)
  let n_vars = List.length vars in
  let groups =
    List.mapi
      (fun i spec ->
        (spec, List.filteri (fun j _ -> j / n_vars = i) results))
      specs
  in
  let sw_cells =
    List.concat_map
      (fun (spec, group) ->
        let cdp_time =
          match
            List.find_opt
              (fun ((m : Experiment.measurement), _) -> m.variant = "CDP")
              group
          with
          | Some (m, _) -> m.time
          | None -> nan
        in
        List.map2
          (fun (label, v) ((m : Experiment.measurement), wall) ->
            {
              sw_bench = m.bench;
              sw_dataset = m.dataset;
              sw_variant = label;
              sw_time = m.time;
              sw_predicted = predict spec v;
              sw_fingerprint = m.fingerprint;
              sw_speedup_vs_cdp = cdp_time /. m.time;
              sw_wall_s = wall;
            })
          vars group)
      groups
  in
  {
    sw_size = size;
    sw_jobs = (match pool with None -> 1 | Some p -> Pool.jobs p);
    sw_cells;
    sw_wall_parallel_s = wall_parallel;
    sw_wall_sequential_est_s =
      List.fold_left (fun acc (_, w) -> acc +. w) 0.0 results;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pf = Fmt.pr

(** Rows in registry order: (bench, dataset, cells in variant order). *)
let rows t =
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun c ->
      let key = (c.sw_bench, c.sw_dataset) in
      match Hashtbl.find_opt tbl key with
      | Some cs -> cs := c :: !cs
      | None ->
          Hashtbl.add tbl key (ref [ c ]);
          order := key :: !order)
    t.sw_cells;
  List.rev_map
    (fun key ->
      let b, d = key in
      (b, d, List.rev !(Hashtbl.find tbl key)))
    !order

let print_table t =
  let labels = List.map fst (variants ()) in
  pf "@.=== Sweep: %d cells (%a datasets; speedup over CDP, higher is \
      better) ===@."
    (List.length t.sw_cells) Benchmarks.Registry.pp_size t.sw_size;
  pf "%-6s %-10s" "Bench" "Dataset";
  List.iter (fun l -> pf " %9s" l) labels;
  pf " %7s" "rho";
  pf "@.";
  let rs = rows t in
  List.iter
    (fun (b, d, cs) ->
      pf "%-6s %-10s" b d;
      List.iter
        (fun c -> pf " %9s" (Stats.speedup_to_string c.sw_speedup_vs_cdp))
        cs;
      (* predicted-vs-measured rank agreement over the CDP variants *)
      let preds = List.filter (fun c -> not (Float.is_nan c.sw_predicted)) cs in
      let rho =
        Stats.spearman
          (List.map (fun c -> c.sw_predicted) preds)
          (List.map (fun c -> c.sw_time) preds)
      in
      pf " %7.2f" rho;
      pf "@.")
    rs;
  pf "%-6s %-10s" "geo" "mean";
  List.iteri
    (fun i _ ->
      let col =
        List.map (fun (_, _, cs) -> (List.nth cs i).sw_speedup_vs_cdp) rs
      in
      pf " %9s" (Stats.speedup_to_string (Stats.geomean col)))
    labels;
  pf "@."

(* Minimal JSON emission: all strings here are benchmark/dataset/variant
   labels (printable ASCII), so escaping covers just quotes/backslashes. *)
let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write_json path t =
  Out_channel.with_open_text path (fun oc ->
      let p fmt = Printf.fprintf oc fmt in
      p "{\n";
      p "  \"schema\": %d,\n" schema_version;
      p "  \"kind\": \"dpopt.sweep\",\n";
      p "  \"size\": %s,\n"
        (json_string (Fmt.to_to_string Benchmarks.Registry.pp_size t.sw_size));
      p "  \"cells\": [\n";
      List.iteri
        (fun i c ->
          p
            "    {\"bench\": %s, \"dataset\": %s, \"variant\": %s, \
             \"time_cycles\": %s, \"predicted_cycles\": %s, \
             \"fingerprint\": %d, \"speedup_vs_cdp\": %.4f}%s\n"
            (json_string c.sw_bench)
            (json_string c.sw_dataset)
            (json_string c.sw_variant)
            (Csv.cycles c.sw_time)
            (if Float.is_nan c.sw_predicted then "null"
             else Csv.cycles c.sw_predicted)
            c.sw_fingerprint c.sw_speedup_vs_cdp
            (if i = List.length t.sw_cells - 1 then "" else ","))
        t.sw_cells;
      p "  ],\n";
      (* host timings: the only non-deterministic object, kept last so the
         deterministic prefix of -j 1 and -j N artifacts is identical *)
      p "  \"wall_clock\": {\n";
      p "    \"jobs\": %d,\n" t.sw_jobs;
      p "    \"parallel_s\": %.3f,\n" t.sw_wall_parallel_s;
      p "    \"sequential_estimate_s\": %.3f,\n" t.sw_wall_sequential_est_s;
      p "    \"parallel_speedup\": %.2f,\n"
        (t.sw_wall_sequential_est_s /. t.sw_wall_parallel_s);
      p "    \"per_cell_s\": [%s]\n"
        (String.concat ", "
           (List.map (fun c -> Printf.sprintf "%.4f" c.sw_wall_s) t.sw_cells));
      p "  }\n";
      p "}\n")

let write_csv path t =
  Csv.write_rows path
    ~header:
      [ "schema"; "bench"; "dataset"; "variant"; "time_cycles";
        "predicted_cycles"; "fingerprint"; "speedup_vs_cdp" ]
    (List.map
       (fun c ->
         [
           string_of_int schema_version;
           c.sw_bench; c.sw_dataset; c.sw_variant;
           Csv.cycles c.sw_time;
           (if Float.is_nan c.sw_predicted then ""
            else Csv.cycles c.sw_predicted);
           string_of_int c.sw_fingerprint;
           Printf.sprintf "%.4f" c.sw_speedup_vs_cdp;
         ])
       t.sw_cells)
