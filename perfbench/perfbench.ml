(** One benchmark process: set up one workload's inputs from the seed,
    run its measured phase, check every output, and print one JSON line of
    results on stdout. [run.py] starts several fresh processes per run and
    turns their lines into the benchmark's metrics.

    {v
    perfbench.exe --workload sweep-small --seed 42 [--pins-dir DIR]
                  [--trace-out FILE] [--setup-only] [--write-pins]
                  [--corrupt-pin] [--check-registry] [--seconds S]
                  [--process I]
    v} *)

module Registry = Benchmarks.Registry

let workloads = [ "sweep-small"; "figures-small"; "large-sampled"; "compile-stream" ]
let versions = [ "nocdp"; "cdp"; "t"; "c"; "a"; "tc"; "ta"; "ca"; "tca" ]

(* The work of a run is fixed, so runs compare; it is sized so that the
   measured phases of a run ([run.py] starts five processes) take about
   [nominal_s] seconds on a 2-core x86 host with the shipped defaults. A
   process given [--seconds S] repeats its measured phase
   [round (S / nominal_s)] times (at least once); repeats count as warm. *)
let nominal_s = 20.0

(* The matrix cells a simulation workload runs, by (spec i, version j).
   sweep-small: (i + j) mod 6 = 2, 27 of the 162 cells, each version on 3
   specs. Of the six such subsets, this one's peak RSS does not jump with
   the seed: with remainder 0 it was 50 or 70 MiB depending on whether the
   major heap grew during MSTF/CNR/CDP+C+A's reference check.
   large-sampled: (i + j) mod 2 = 0, 22 of the 45 cells; it leaves out
   SSSP on ROAD under CDP+T+C+A, whose time (1.0-1.6 s) moves with the
   seed's road graph: as the slowest cell it would set cold_p99_ms alone. *)
let sweep_cells ~i ~j (_ : Sim.matrix_cell) = (i + j) mod 6 = 2

let large_cells ~i ~j (c : Sim.matrix_cell) =
  (i + j) mod 2 = 0
  && not (c.spec.name = "SSSP" && c.spec.dataset = "ROAD" && c.label = "CDP+T+C+A")

(* large-sampled leaves out MSTF: its large cells take 1-4.5 s each with
   the closure engine, so any one of them would dominate the workload. *)
let large_excluded = [ "MSTF" ]

(* large-sampled: the three code versions of the scale tier. *)
let large_versions = [ "No CDP"; "CDP"; "CDP+T+C+A" ]

(* figures-small: Fig. 9 then Fig. 10 tuning of these benchmarks on KRON. *)
let figure_benchmarks = [ "BFS"; "MSTV" ]

(* compile-stream: [Serve.Traffic] with this many distinct jobs (their
   cache entries fit the engine's default 64 MiB budget) and requests. *)
let stream_distinct = 1536
let stream_requests = 20_000

(* Zipf exponent of the stream: flat enough that the 1% of warm requests
   beyond warm_p99_ms come from dozens of programs, not the few hottest,
   so the metric does not hang on the size of a few programs the seed
   happened to make popular (at 0.5 the hottest program alone is 1.3% of
   the stream, and warm_p99_ms spread 0.36 over ten seeds; 0.10 at 0.25). *)
let stream_zipf = 0.25

type args = {
  workload : string;
  seed : int;
  seconds : float;
  pins_dir : string option;
  trace_out : string option;
  setup_only : bool;
  write_pins : bool;
  corrupt_pin : bool;
  check_registry : bool;
  process : int;  (** Index of this process in its run. *)
}

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload (sweep-small|figures-small|large-sampled|\
     compile-stream) --seed N [--seconds S] [--pins-dir DIR] [--trace-out \
     FILE] [--setup-only] [--write-pins] [--corrupt-pin] [--check-registry] \
     [--process I]";
  exit 2

let parse_args () =
  let rec go a = function
    | "--workload" :: w :: rest when List.mem w workloads -> go { a with workload = w } rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
        go { a with seed = int_of_string n } rest
    | "--seconds" :: s :: rest when float_of_string_opt s <> None ->
        go { a with seconds = float_of_string s } rest
    | "--pins-dir" :: d :: rest -> go { a with pins_dir = Some d } rest
    | "--trace-out" :: f :: rest -> go { a with trace_out = Some f } rest
    | "--setup-only" :: rest -> go { a with setup_only = true } rest
    | "--write-pins" :: rest -> go { a with write_pins = true } rest
    | "--corrupt-pin" :: rest -> go { a with corrupt_pin = true } rest
    | "--check-registry" :: rest -> go { a with check_registry = true } rest
    | "--process" :: i :: rest when int_of_string_opt i <> None ->
        go { a with process = int_of_string i } rest
    | [] -> a
    | _ -> usage ()
  in
  let a =
    go
      {
        workload = "";
        seed = Inputs.default_seed;
        seconds = nominal_s;
        pins_dir = None;
        trace_out = None;
        setup_only = false;
        write_pins = false;
        corrupt_pin = false;
        check_registry = false;
        process = 0;
      }
      (List.tl (Array.to_list Sys.argv))
  in
  if a.workload = "" then usage ();
  a

(* ---- results --------------------------------------------------------- *)

let now = Span.now

(** Peak resident set (VmHWM) in MiB; the major heap's peak when /proc is
    unavailable. *)
let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" In_channel.input_all
      |> String.split_on_char '\n'
      |> List.find_map (fun l ->
             if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
               Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
                 (fun kb -> Some (float_of_int kb /. 1024.0))
             else None)
    with _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
      float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
      /. 1048576.0

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"
let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Span.json_string k ^ ": " ^ v) fields) ^ "}"

(* Latencies in milliseconds. *)
let latencies_json xs =
  "[" ^ String.concat "," (List.map (fun x -> Printf.sprintf "%.4f" (x *. 1000.0)) xs) ^ "]"

(** The per-layer metrics of a traced run, from its spans and counters. *)
let layer_metrics ~wall ~runs ~repeats =
  let self name = Span.self_sum (fun s -> s.Span.name = name) in
  let layer l =
    Span.self_sum (fun s ->
        String.length s.Span.name > String.length l
        && String.sub s.Span.name 0 (String.length l + 1) = l ^ ".")
  in
  let run_s = self "gpusim.run" in
  let gpusim_alloc =
    Span.fold
      (fun acc s ->
        if s.Span.name = "gpusim.run" || s.Span.name = "gpusim.load" then
          acc +. s.alloc_bytes
        else acc)
      0.0
  in
  let c = Span.counter in
  [ ("gpusim.run_s", run_s) ]
  @ List.map
      (fun v ->
        ( "gpusim.run_s." ^ v,
          Span.self_sum (fun s -> s.Span.name = "gpusim.run" && s.tag = v) ))
      versions
  @ [
      ("gpusim.load_s", self "gpusim.load");
      ("gpusim.alloc_mw", gpusim_alloc /. float_of_int (Sys.word_size / 8) /. 1e6);
      ("gpusim.grids", c "gpusim.grids");
      ("gpusim.device_launches", c "gpusim.device_launches");
      ("gpusim.blocks", c "gpusim.blocks");
      ("gpusim.threads", c "gpusim.threads");
      ("gpusim.sim_cycles_per_s", if run_s > 0.0 then c "gpusim.cycles" /. run_s else 0.0);
      ("gpusim.sampled_blocks", c "gpusim.sampled_blocks");
      ("gpusim.skipped_blocks", c "gpusim.skipped_blocks");
      ("harness.runs", float_of_int runs);
      ("harness.repeat_frac", if runs > 0 then float_of_int repeats /. float_of_int runs else 0.0);
      ("harness.other_s", layer "harness");
    ]
  @ List.map
      (fun d ->
        ( "workloads.gen_s." ^ String.lowercase_ascii d,
          Span.self_sum (fun s -> s.Span.name = "workloads.gen" && s.tag = d) ))
      Inputs.dataset_names
  @ [
      ("benchmarks.spec_s", self "benchmarks.spec");
      ("benchmarks.reference_s", self "benchmarks.reference");
      ("minicu.parse_s", self "minicu.parse");
      ("minicu.typecheck_s", self "minicu.typecheck");
      ("minicu.pretty_s", self "minicu.pretty");
      ("minicu.nodes", c "minicu.nodes");
      ("dpopt.thresholding_s", self "dpopt.thresholding");
      ("dpopt.coarsening_s", self "dpopt.coarsening");
      ("dpopt.aggregation_s", self "dpopt.aggregation");
      ("dpopt.sites", c "dpopt.sites");
      ("analysis.dpcheck_s", self "analysis.dpcheck");
      ("costmodel.predict_s", self "costmodel.predict");
      ("serve.self_s", c "serve.self_s");
      ("serve.hit_rate", c "serve.hit_rate");
      ("serve.cache_bytes", c "serve.cache_bytes");
      ("serve.evictions", c "serve.evictions");
      ("trace.wall_s", wall);
      ("trace.spans", float_of_int !Span.next_id);
      ("trace.unattributed_frac", if wall > 0.0 then layer "harness" /. wall else 0.0);
    ]

(* ---- workloads ------------------------------------------------------- *)

type prepared = {
  digests : (string * string) list;
  measure : Record.t -> int * int;  (** Returns (simulations, repeats). *)
}

let sim_setup ~seed size =
  let d = Inputs.datasets ~seed size in
  let specs = Span.with_ "benchmarks.spec" (fun () -> Inputs.specs d size) in
  (d, specs)

(* The measured phase of sweep-small and large-sampled: the matrix cells
   [keep] selects. *)
let matrix_phase ?cfg ~sweep ~keep ~rounds specs refs versions =
  let nv = List.length versions in
  let cells =
    Sim.matrix specs refs ~versions
    |> List.filter (fun (c : Sim.matrix_cell) ->
           keep ~i:(c.index / nv) ~j:(c.index mod nv) c)
  in
  fun r ->
    Sim.run_matrix ?cfg ~sweep ~rounds r cells;
    (rounds * List.length cells, (rounds - 1) * List.length cells)

let prepare a : prepared =
  let seed = a.seed in
  let rounds = max 1 (int_of_float (Float.round (a.seconds /. nominal_s))) in
  match a.workload with
  | "sweep-small" ->
      let d, specs = sim_setup ~seed Registry.Small in
      let refs = Sim.references specs in
      {
        digests = Inputs.dataset_digests d;
        measure = matrix_phase ~sweep:true ~keep:sweep_cells ~rounds specs refs Sim.versions;
      }
  | "large-sampled" ->
      let d, specs = sim_setup ~seed Registry.Large in
      let specs =
        List.filter
          (fun (s : Benchmarks.Bench_common.spec) -> not (List.mem s.name large_excluded))
          specs
      in
      let cfg =
        {
          Gpusim.Config.default with
          sampling = Some (Harness.Experiment.sampling_for_size Registry.Large);
        }
      in
      let versions = List.filter (fun (l, _) -> List.mem l large_versions) Sim.versions in
      let refs = Sim.references specs in
      {
        digests = Inputs.dataset_digests d;
        measure = matrix_phase ~cfg ~sweep:false ~keep:large_cells ~rounds specs refs versions;
      }
  | "figures-small" ->
      let d, specs = sim_setup ~seed Registry.Small in
      let specs =
        List.filter
          (fun (s : Benchmarks.Bench_common.spec) ->
            s.dataset = "KRON" && List.mem s.name figure_benchmarks)
          specs
      in
      let refs = Sim.references specs in
      {
        digests = Inputs.dataset_digests d;
        measure = (fun r -> Sim.figures ~rounds r specs refs);
      }
  | _ ->
      let p =
        Stream.setup ~seed ~distinct:stream_distinct ~zipf:stream_zipf
          ~requests:stream_requests
      in
      {
        digests = p.digests;
        measure =
          (fun r ->
            Stream.measure ~rounds ~process:a.process r p;
            (0, 0));
      }

(* A fixed amount of work that runs none of the program's code: calls
   through closures, allocation, hashing and sorting, as an interpreter
   does. Timed in this process, before set-up and after the measured
   phase, it tracks the speed the host gives this process: on a shared
   host that speed differs from one process to the next and can stay low
   for minutes, and loops timed in other processes did not follow it
   (README.md, "Host speed"). The loop runs under
   fixed GC parameters (the program's are restored afterwards), and the
   dune file fixes the flags this file is compiled with, so a program
   change to either cannot speed the loop up. *)
let calibrate () =
  let program_gc = Gc.get () in
  Gc.set { program_gc with minor_heap_size = 262_144; space_overhead = 120 };
  let t0 = now () in
  let ops = [| ( + ); ( - ); ( * ); ( lxor ); ( lor ) |] in
  let h = Hashtbl.create 4096 in
  let acc = ref 1 in
  for i = 1 to 200_000 do
    acc := ops.(i mod 5) !acc (i lor 1);
    let k = !acc land 4095 in
    let l = Option.value (Hashtbl.find_opt h k) ~default:[] in
    Hashtbl.replace h k (List.filteri (fun j _ -> j < 4) (i :: l))
  done;
  let a = Array.init 100_000 (fun i -> (i * 48271) mod 65521) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (!acc, a));
  let t = now () -. t0 in
  Gc.set program_gc;
  t

(* Median of three. *)
let calibrate3 () = List.nth (List.sort compare (List.init 3 (fun _ -> calibrate ()))) 1

let stamp a =
  json_obj
    [
      ("workload", Span.json_string a.workload);
      ("seed", string_of_int a.seed);
      ("ocaml", Span.json_string Sys.ocaml_version);
      ("engine", Span.json_string (Fmt.str "%a" Gpusim.Config.pp_engine Gpusim.Config.default.engine));
      ("domains", "1");
      ("pool_default_jobs", string_of_int (Harness.Pool.default_jobs ()));
      ("recommended_domains", string_of_int (Domain.recommended_domain_count ()));
    ]

let () =
  let a = parse_args () in
  if a.check_registry then begin
    let ok size = Inputs.matches_registry (Inputs.datasets ~seed:Inputs.default_seed size) size in
    let small = ok Registry.Small and large = ok Registry.Large in
    print_endline
      (json_obj [ ("registry_small", string_of_bool small); ("registry_large", string_of_bool large) ]);
    exit (if small && large then 0 else 1)
  end;
  let calib_start = calibrate3 () in
  if a.trace_out <> None then Span.enable ();
  let t0 = now () in
  let p = prepare a in
  let setup_s = now () -. t0 in
  let common =
    [
      ("stamp", stamp a);
      ("digests", json_obj (List.map (fun (k, v) -> (k, Span.json_string v)) p.digests));
      ("setup_s", json_num setup_s);
    ]
  in
  if a.setup_only then
    print_endline
      (json_obj (common @ [ ("calib_s", json_num ((calib_start +. calibrate3 ()) /. 2.0)) ]))
  else begin
    let pins =
      match a.pins_dir with
      | Some dir when not a.write_pins ->
          Pins.load (Pins.path ~dir ~workload:a.workload ~seed:a.seed)
      | _ -> None
    in
    if a.corrupt_pin then Option.iter Pins.corrupt pins;
    let r = Record.create ?pins ~write_pins:a.write_pins () in
    let t1 = now () in
    let runs, repeats = Span.with_ "harness.measure" (fun () -> p.measure r) in
    let wall_s = now () -. t1 in
    let rss = peak_rss_mb () in
    let calib_s = (calib_start +. calibrate3 ()) /. 2.0 in
    List.iter (fun w -> Printf.eprintf "perfbench: FAILED %s\n" w) (List.rev r.failures);
    (match (a.write_pins, a.pins_dir) with
    | true, Some dir ->
        Pins.write (Pins.path ~dir ~workload:a.workload ~seed:a.seed) (List.rev r.pinned)
    | _ -> ());
    let layers =
      match a.trace_out with
      | None -> []
      | Some file ->
          Span.write_chrome file;
          [
            ( "layers",
              json_obj
                (List.map (fun (k, v) -> (k, json_num v)) (layer_metrics ~wall:wall_s ~runs ~repeats)) );
          ]
    in
    print_endline
      (json_obj
         (common
         @ [
             ("calib_s", json_num calib_s);
             ("wall_s", json_num wall_s);
             ("peak_rss_mb", json_num rss);
             ("attempted", string_of_int r.attempted);
             ("failed", string_of_int r.failed);
             ("pinned", string_of_bool (pins <> None));
             ("outputs", Span.json_string (Record.outputs_digest r));
             ("cold_ms", latencies_json (List.rev r.cold));
             ("warm_ms", latencies_json (List.rev r.warm));
           ]
         @ layers))
  end
