(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section from the simulator, plus Bechamel microbenchmarks of
   the compiler passes themselves.

   Usage:
     dune exec bench/main.exe                 # everything (small datasets)
     dune exec bench/main.exe -- fig9 fig12   # selected experiments
     dune exec bench/main.exe -- all --size=medium
     dune exec bench/main.exe -- fig9 --csv=results/   # also write CSVs
     dune exec bench/main.exe -- all -j 4     # figure cells on 4 domains

   Experiments: table1 fig9 fig10 fig11 fig12 fixed128 ablation micro,
   plus engine-smoke, scale and scale-smoke, which run only when named
   explicitly (the two smokes are acceptance gates and exit 1 on failure).
   Flags: --size=small|medium|large (any case), --sample, --exact, -j N
   (also --jobs N, --jobs=N) and --csv=DIR. An unknown experiment or flag,
   a bad size or a malformed -j prints one line on stderr and exits 2. *)

(* The host line after each experiment: its wall time, and how many of
   its runs it simulated and how many it reused from earlier ones. *)
let wall f =
  let t0 = Unix.gettimeofday () in
  let s0 = Harness.Experiment.simulated ()
  and r0 = Harness.Experiment.reused () in
  let r = f () in
  Printf.printf "[%.1fs wall, %d simulated, %d reused]\n%!"
    (Unix.gettimeofday () -. t0)
    (Harness.Experiment.simulated () - s0)
    (Harness.Experiment.reused () - r0);
  r

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: compiler-pass throughput                  *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let src = Test_prog.nested_src in
  let prog = Minicu.Parser.program src in
  let mk name f = Test.make ~name (Staged.stage f) in
  (* one Test.make per compiler stage *)
  let tests =
    Test.make_grouped ~name:"passes"
      [
        mk "parse" (fun () -> Minicu.Parser.program src);
        mk "typecheck" (fun () -> Minicu.Typecheck.check prog);
        mk "pretty-print" (fun () -> Minicu.Pretty.program prog);
        mk "thresholding" (fun () ->
            Dpopt.Thresholding.transform
              ~opts:{ Dpopt.Thresholding.threshold = 32 }
              prog);
        mk "coarsening" (fun () ->
            Dpopt.Coarsening.transform ~opts:{ Dpopt.Coarsening.cfactor = 8 }
              prog);
        mk "aggregation-block" (fun () ->
            Dpopt.Aggregation.transform
              ~opts:
                {
                  Dpopt.Aggregation.granularity = Dpopt.Aggregation.Block;
                  agg_threshold = None;
                }
              prog);
        mk "aggregation-multiblock" (fun () ->
            Dpopt.Aggregation.transform
              ~opts:
                {
                  Dpopt.Aggregation.granularity =
                    Dpopt.Aggregation.Multi_block 8;
                  agg_threshold = None;
                }
              prog);
        mk "full-pipeline-TCA" (fun () ->
            Dpopt.Pipeline.run
              ~opts:
                (Dpopt.Pipeline.make ~threshold:32 ~cfactor:8
                   ~granularity:(Dpopt.Aggregation.Multi_block 8) ())
              prog);
        mk "simulator-compile" (fun () ->
            Gpusim.Bytecode.compile Gpusim.Config.default prog);
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "\n=== Microbenchmarks: compiler pass throughput ===\n";
  Printf.printf "%-40s %14s\n" "pass" "time/run";
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Bechamel.Analyze.OLS.estimates ols with
      | Some [ ns ] ->
          let pretty =
            if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
            else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
            else Printf.sprintf "%.0f ns" ns
          in
          Printf.printf "%-40s %14s\n" name pretty
      | _ -> Printf.printf "%-40s %14s\n" name "-")
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Engine smoke: the VM's allocation gate                              *)
(* ------------------------------------------------------------------ *)

(* Deterministic acceptance gate of the [@ir] alias. On ten loop micro
   kernels, every output must equal its closed-form value, and one launch
   must allocate no more minor-heap words at twice the loop trip count
   than at the trip count itself, and at most [launch_words] at either:
   the VM's steady state allocates nothing per loop iteration, neither in
   its registers nor on the memory path, and starting a thread allocates
   nothing either (a 256-thread launch allocates about 800 words, all
   per block and per grid). [count-loop], [int-accumulate] and
   [uniform-prefix] loop before any [threadIdx] read, in a block-uniform
   prefix (Bytecode.uniform), so one thread of the 256-thread block runs
   the loop and the others copy its state; [uniform-prefix] loads from
   the host buffer [keys], which no thread writes. The other seven loop in
   all 256 threads, after a [threadIdx] read or a store to a buffer the
   loop reads. [load-local], [load-expr] and [load-addr] read the
   256-element boxed buffer [out] every iteration: [load-local] reads
   [threadIdx] first, [load-expr] loads from the buffer every thread then
   stores to, and [load-addr] loads through a pointer formed with [&].
   [dim3-local] reads a component of a dim3 local, and [load-wide] and
   [store-wide] load from and store to [wide], a 2048-element buffer with
   typed (unboxed int) storage. [call-loop] calls a leaf device function
   with [wide] and [dim3(j, 0, 0)] every iteration: the lowering inlines
   the call and binds the parameter to [j]'s register, so the loop makes
   no VM call and builds no dim3. The trip count is BYTECODE_SMOKE_ITERS
   (see Harness.Env). *)
let engine_smoke () =
  let iters = Harness.Env.get "BYTECODE_SMOKE_ITERS" in
  let launch_words = 1024. in
  (* [uniform-prefix]'s block-wide total: iteration k finds the first of
     keys = 0, 2, 4, ... above k & 255. *)
  let searched n =
    let s = ref 0 in
    for k = 0 to n - 1 do
      s := !s + ((k land 255) / 2) + 1
    done;
    !s
  in
  let kernels =
    [
      (* the rotated-loop bottom is one fused VM dispatch *)
      ( "count-loop",
        {|
__global__ void micro(int* out, int iters, int* keys, int* wide) {
  int s = 0;
  for (int k = 0; k < iters; k = k + 1) { }
  out[threadIdx.x] = s;
}
|},
        fun _ _ -> 0 );
      (* one arithmetic instruction per iteration *)
      ( "int-accumulate",
        {|
__global__ void micro(int* out, int iters, int* keys, int* wide) {
  int s = 0;
  for (int k = 0; k < iters; k = k + 1) { s = s + k; }
  out[threadIdx.x] = s;
}
|},
        fun n _ -> n * (n - 1) / 2 );
      (* one indexed load per iteration, fused with its pointer coercion
         ([as_ptr.ldi]: [j] is an int-valued local, whose index needs
         none) *)
      ( "load-local",
        {|
__global__ void micro(int* out, int iters, int* keys, int* wide) {
  int s = 0;
  int j = threadIdx.x;
  for (int k = 0; k < iters; k = k + 1) { s = s + out[j]; }
  out[threadIdx.x] = s;
}
|},
        fun _ _ -> 0 );
      (* an index expression between the pointer and index coercions *)
      ( "load-expr",
        {|
__global__ void micro(int* out, int iters, int* keys, int* wide) {
  int s = 0;
  for (int k = 0; k < iters; k = k + 1) { s = s + out[k & 255]; }
  out[threadIdx.x] = s;
}
|},
        fun _ _ -> 0 );
      (* a pointer formed with & and loaded through *)
      ( "load-addr",
        {|
__global__ void micro(int* out, int iters, int* keys, int* wide) {
  int s = 0;
  for (int k = 0; k < iters; k = k + 1) {
    int* q = &out[k & 255];
    s = s + q[0];
  }
  out[threadIdx.x] = s;
}
|},
        fun _ _ -> 0 );
      (* a binary search through a pointer parameter per iteration, like
         the aggregation's disaggregation prologue, then a per-thread
         store *)
      ( "uniform-prefix",
        {|
__global__ void micro(int* out, int iters, int* keys, int* wide) {
  int s = 0;
  for (int k = 0; k < iters; k = k + 1) {
    int lo = 0;
    int hi = 255;
    while (lo < hi) {
      int mid = (lo + hi) / 2;
      if (keys[mid] > (k & 255)) { hi = mid; } else { lo = mid + 1; }
    }
    s = s + lo;
  }
  out[threadIdx.x] = s + threadIdx.x;
}
|},
        fun n tid -> searched n + tid );
      (* one dim3 component read per iteration *)
      ( "dim3-local",
        {|
__global__ void micro(int* out, int iters, int* keys, int* wide) {
  int s = 0;
  dim3 d = dim3(threadIdx.x, 2, 3);
  for (int k = 0; k < iters; k = k + 1) { s = s + d.x; }
  out[threadIdx.x] = s;
}
|},
        fun n tid -> n * tid );
      (* one load from typed storage per iteration *)
      ( "load-wide",
        {|
__global__ void micro(int* out, int iters, int* keys, int* wide) {
  int s = 0;
  int j = threadIdx.x;
  for (int k = 0; k < iters; k = k + 1) { s = s + wide[j]; }
  out[threadIdx.x] = s;
}
|},
        fun n tid -> n * tid );
      (* one store to typed storage per iteration *)
      ( "store-wide",
        {|
__global__ void micro(int* out, int iters, int* keys, int* wide) {
  int j = threadIdx.x;
  for (int k = 0; k < iters; k = k + 1) { wide[j + 256] = k; }
  out[threadIdx.x] = wide[j + 256];
}
|},
        fun n _ -> n - 1 );
      (* a call of a leaf device function per iteration, with a pointer
         and a dim3 of an int-valued local, which the lowering inlines *)
      ( "call-loop",
        {|
__device__ int pick(int* w, dim3 t) {
  return w[t.x] + t.y;
}

__global__ void micro(int* out, int iters, int* keys, int* wide) {
  int s = 0;
  int j = threadIdx.x;
  for (int k = 0; k < iters; k = k + 1) { s = s + pick(wide, dim3(j, 0, 0)); }
  out[threadIdx.x] = s;
}
|},
        fun n tid -> n * tid );
    ]
  in
  (* Minor words allocated by one launch at trip count [n], measured after
     a warm-up launch has sized the scheduler's thread arena, and whether
     every thread [tid] wrote [expected n tid]. *)
  let measure src expected n =
    let dev = Gpusim.Device.create () in
    Gpusim.Device.load_program dev (Minicu.Parser.program src);
    let out = Gpusim.Device.alloc_int_zeros dev 256 in
    let keys = Gpusim.Device.alloc_ints dev (Array.init 256 (fun i -> 2 * i)) in
    let wide = Gpusim.Device.alloc_ints dev (Array.init 2048 Fun.id) in
    let launch () =
      Gpusim.Device.launch dev ~kernel:"micro" ~grid:(1, 1, 1)
        ~block:(256, 1, 1)
        ~args:Gpusim.Value.[ Ptr out; Int n; Ptr keys; Ptr wide ];
      ignore (Gpusim.Device.sync dev)
    in
    launch ();
    let w0 = Gc.minor_words () in
    launch ();
    let words = Gc.minor_words () -. w0 in
    let outputs = Gpusim.Device.read_ints dev out 256 in
    (words, Array.for_all Fun.id (Array.mapi (fun tid v -> v = expected n tid) outputs))
  in
  Printf.printf "\n=== Engine smoke: VM allocation per launch (%d, %d iters) ===\n"
    iters (2 * iters);
  Printf.printf "%-16s %12s %12s %s\n" "kernel" "words@1x" "words@2x"
    "outputs";
  let gate_ok = ref true in
  List.iter
    (fun (name, src, expected) ->
      let w1, ok1 = measure src expected iters in
      let w2, ok2 = measure src expected (2 * iters) in
      let pinned = ok1 && ok2 in
      if w2 > w1 || w1 > launch_words || w2 > launch_words || not pinned then
        gate_ok := false;
      Printf.printf "%-16s %12.0f %12.0f %s\n" name w1 w2
        (if pinned then "pinned" else "MISMATCH"))
    kernels;
  if not !gate_ok then begin
    Printf.printf
      "engine smoke FAILED: a launch allocates more at 2x the trip count \
       (per-iteration allocation in the VM) or more than %.0f words \
       (per-thread allocation), or an output differs from its pinned \
       value\n"
      launch_words;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Paper-scale execution: the scale trajectory and the @scale smoke    *)
(* ------------------------------------------------------------------ *)

let json_string s =
  "\"" ^ String.concat "\\\"" (String.split_on_char '"' s) ^ "\""

(* The geomean-vs-scale trajectory: the Fig. 9 matrix at every registry
   tier (large sampled), plus the Fig. 12 road matrix at large. The paper's
   thesis is that the optimizations matter MORE at scale; the artifact pins
   the CDP+T+C+A-over-No-CDP geomean rising with dataset size. *)
let scale_trajectory ~pool () =
  let headline_nocdp = "CDP+T+C+A over No CDP (paper: 8.7x)" in
  let headline_cdp = "CDP+T+C+A over CDP (paper: 43.0x)" in
  let tier size =
    let label = Fmt.to_to_string Benchmarks.Registry.pp_size size in
    let sampling =
      match size with
      | Benchmarks.Registry.Large ->
          Some (Harness.Experiment.sampling_for_size size)
      | _ -> None
    in
    let cfg = { Gpusim.Config.default with sampling } in
    Printf.printf "\n=== scale tier %s (%s) ===\n%!" label
      (if sampling = None then "exact" else "sampled");
    let t0 = Unix.gettimeofday () in
    let rows, heads = Harness.Figures.fig9 ~cfg ~pool ~size () in
    let wall = Unix.gettimeofday () -. t0 in
    let geo l = try List.assoc l heads with Not_found -> nan in
    (label, sampling <> None, List.length rows, wall,
     geo headline_nocdp, geo headline_cdp)
  in
  let tiers = List.map tier Benchmarks.Registry.[ Small; Medium; Large ] in
  let cfg_large =
    {
      Gpusim.Config.default with
      sampling =
        Some (Harness.Experiment.sampling_for_size Benchmarks.Registry.Large);
    }
  in
  Printf.printf "\n=== scale tier large: Fig. 12 road matrix (sampled) ===\n%!";
  let _, fig12_geo =
    Harness.Figures.fig12 ~cfg:cfg_large ~pool ~size:Benchmarks.Registry.Large
      ()
  in
  Printf.printf "\n=== geomean-vs-scale trajectory ===\n";
  Printf.printf "%-8s %-8s %6s %24s %24s %10s\n" "tier" "mode" "specs"
    "CDP+T+C+A/No-CDP" "CDP+T+C+A/CDP" "wall";
  List.iter
    (fun (label, sampled, specs, wall, g_nocdp, g_cdp) ->
      Printf.printf "%-8s %-8s %6d %24s %24s %9.1fs\n" label
        (if sampled then "sampled" else "exact")
        specs
        (Harness.Stats.speedup_to_string g_nocdp)
        (Harness.Stats.speedup_to_string g_cdp)
        wall)
    tiers;
  Printf.printf "fig12 large (road, sampled) CDP+T+C+A/No-CDP: %s\n"
    (Harness.Stats.speedup_to_string fig12_geo);
  let geos = List.map (fun (_, _, _, _, g, _) -> g) tiers in
  let monotone =
    match geos with
    | [ s; m; l ] -> s < m && m < l
    | _ -> false
  in
  Printf.printf "CDP+T+C+A/No-CDP strictly increases with scale: %s\n"
    (if monotone then "yes" else "NO (trajectory regression)");
  let path = "BENCH_scale.json" in
  Out_channel.with_open_text path (fun oc ->
      let p fmt = Printf.fprintf oc fmt in
      p "{\n";
      p "  \"schema\": 2,\n";
      p "  \"kind\": \"dpopt.scale\",\n";
      p "  \"tiers\": [\n";
      List.iteri
        (fun i (label, sampled, specs, wall, g_nocdp, g_cdp) ->
          p
            "    {\"size\": %s, \"sampled\": %b, \"specs\": %d, \
             \"geomean_tca_over_nocdp\": %.4f, \"geomean_tca_over_cdp\": \
             %.4f, \"wall_s\": %.1f}%s\n"
            (json_string label) sampled specs g_nocdp g_cdp wall
            (if i = List.length tiers - 1 then "" else ","))
        tiers;
      p "  ],\n";
      p "  \"fig12_large_geomean_tca_over_nocdp\": %.4f,\n" fig12_geo;
      p "  \"monotone_tca_over_nocdp\": %b\n" monotone;
      p "}\n");
  Printf.printf "wrote %s\n" path

(* The @scale acceptance gate, deterministic throughout: large-tier degree
   skew, sampled extrapolation within 10% of exact on SCALE_SMOKE
   medium-tier cells, and a large sampled cell completing end to end.
   Exits 1 on any failure. *)
let scale_smoke () =
  let n_specs = Harness.Env.get "SCALE_SMOKE" in
  let failures = ref [] in
  let gate name ok detail =
    Printf.printf "  [%s] %-28s %s\n%!"
      (if ok then "ok" else "FAIL")
      name detail;
    if not ok then failures := name :: !failures
  in
  Printf.printf "\n=== scale smoke (SCALE_SMOKE=%d) ===\n" n_specs;

  (* 1. the large tier is in the paper's degree regime *)
  let kron, _, _, _, _, _, _ =
    Benchmarks.Registry.datasets Benchmarks.Registry.Large
  in
  let ratio =
    float_of_int (Workloads.Csr.max_degree kron.graph)
    /. Workloads.Csr.avg_degree kron.graph
  in
  gate "large-degree-skew" (ratio >= 100.0)
    (Printf.sprintf "KRON max/avg degree %.0f (floor 100)" ratio);

  (* 2. sampled medium cells extrapolate within 10% of exact *)
  let candidates =
    [ ("BT", "T0032-C16"); ("BFS", "KRON"); ("SSSP", "CNR"); ("SP", "RAND-3") ]
  in
  let picked = List.filteri (fun i _ -> i < n_specs) candidates in
  List.iter
    (fun (name, dataset) ->
      match
        Benchmarks.Registry.find ~size:Benchmarks.Registry.Medium ~name
          ~dataset ()
      with
      | None -> gate "extrapolation" false (name ^ "/" ^ dataset ^ " missing")
      | Some spec ->
          let run cfg =
            Harness.Experiment.run ~cfg spec
              (Harness.Variant.Cdp Dpopt.Pipeline.none)
          in
          let exact = run Gpusim.Config.default in
          let sampled =
            run
              {
                Gpusim.Config.default with
                sampling = Some Gpusim.Config.default_sampling;
              }
          in
          let err =
            Float.abs (sampled.time -. exact.time) /. exact.time
          in
          gate
            (Printf.sprintf "extrapolation %s/%s" name dataset)
            (sampled.sampled && err <= 0.10)
            (Printf.sprintf "error %.1f%% (exact %.0f, sampled %.0f)"
               (100.0 *. err) exact.time sampled.time))
    picked;

  (* 3. a large-tier sampled cell completes end to end with a finite
     error bound *)
  (match
     Benchmarks.Registry.find ~size:Benchmarks.Registry.Large ~name:"BFS"
       ~dataset:"KRON" ()
   with
  | None -> gate "large-sampled-run" false "BFS/KRON missing at large"
  | Some spec ->
      let t0 = Unix.gettimeofday () in
      let m =
        Harness.Experiment.run
          ~cfg:
            {
              Gpusim.Config.default with
              sampling =
                Some
                  (Harness.Experiment.sampling_for_size
                     Benchmarks.Registry.Large);
            }
          spec
          (Harness.Variant.Cdp Dpopt.Pipeline.none)
      in
      let wall = Unix.gettimeofday () -. t0 in
      gate "large-sampled-run"
        (m.sampled && Float.is_finite m.rel_std_error && m.time > 0.0)
        (Printf.sprintf "%.0f cycles extrapolated, rse %.2f%%, %.1fs wall"
           m.time
           (100.0 *. m.rel_std_error)
           wall));

  if !failures <> [] then begin
    Printf.printf "scale smoke FAILED: %s\n"
      (String.concat ", " (List.rev !failures));
    exit 1
  end;
  Printf.printf "scale smoke OK\n"

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    "all"; "table1"; "fig9"; "fig10"; "fig11"; "fig12"; "fixed128";
    "ablation"; "micro"; "engine-smoke"; "scale"; "scale-smoke";
  ]

(* A command-line mistake: one line on stderr, exit 2, before the banner. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench/main.exe: " ^ msg);
      exit 2)
    fmt

type opts = {
  size : Benchmarks.Registry.size;
  sample : bool;
  exact : bool;
  jobs : int;
  csv_dir : string option;
  names : string list;  (** Experiments named, in order. *)
}

let parse_args args =
  let value ~flag a =
    String.sub a (String.length flag) (String.length a - String.length flag)
  in
  let jobs_of s =
    match int_of_string_opt s with
    | Some j when j >= 1 -> j
    | _ -> usage_error "-j needs a positive integer, got %S" s
  in
  let rec go o = function
    | [] -> { o with names = List.rev o.names }
    | ("-j" | "--jobs") :: n :: rest -> go { o with jobs = jobs_of n } rest
    | [ ("-j" | "--jobs") ] -> usage_error "-j needs a positive integer"
    | a :: rest when String.starts_with ~prefix:"--jobs=" a ->
        go { o with jobs = jobs_of (value ~flag:"--jobs=" a) } rest
    | a :: rest when String.starts_with ~prefix:"--size=" a -> (
        match Benchmarks.Registry.size_of_string (value ~flag:"--size=" a) with
        | Ok size -> go { o with size } rest
        | Error (`Msg m) -> usage_error "%s" m)
    | "--sample" :: rest -> go { o with sample = true } rest
    | "--exact" :: rest -> go { o with exact = true } rest
    | a :: rest when String.starts_with ~prefix:"--csv=" a && a <> "--csv=" ->
        go { o with csv_dir = Some (value ~flag:"--csv=" a) } rest
    | a :: _ when String.starts_with ~prefix:"-" a ->
        usage_error
          "unknown option %S (expected --size=small|medium|large, --sample, \
           --exact, -j N, --jobs=N or --csv=DIR)"
          a
    | a :: rest when List.mem a experiments ->
        go { o with names = a :: o.names } rest
    | a :: _ ->
        usage_error "unknown experiment %S (expected %s)" a
          (String.concat " | " experiments)
  in
  go
    {
      size = Benchmarks.Registry.Small;
      sample = false;
      exact = false;
      jobs = 1;
      csv_dir = None;
      names = [];
    }
    args

let () =
  let { size; sample; exact; jobs; csv_dir; names } =
    parse_args (List.tl (Array.to_list Sys.argv))
  in
  (* --sample forces stratified grid sampling at any size; --exact forces
     full simulation. Default: sampled at --size=large (what makes the
     large tier routine), exact below. *)
  let sampling =
    if exact then None
    else if sample || size = Benchmarks.Registry.Large then
      Some (Harness.Experiment.sampling_for_size size)
    else None
  in
  let cfg =
    Option.map
      (fun sp -> { Gpusim.Config.default with sampling = Some sp })
      sampling
  in
  (match csv_dir with
  | Some d when not (Sys.file_exists d) -> Sys.mkdir d 0o755
  | _ -> ());
  let csv name write =
    match csv_dir with
    | None -> ()
    | Some d ->
        let path = Filename.concat d (name ^ ".csv") in
        write path;
        Printf.printf "wrote %s\n" path
  in
  let wanted =
    if names = [] || List.mem "all" names then None else Some names
  in
  let enabled name =
    match wanted with None -> true | Some l -> List.mem name l
  in
  Printf.printf
    "Reproduction harness for 'A Compiler Framework for Optimizing Dynamic \
     Parallelism on GPUs' (CGO 2022)\n\
     Simulated device: %d SMs, warp %d, launch service %d cycles (see \
     Gpusim.Config)\n"
    Gpusim.Config.default.num_sms Gpusim.Config.default.warp_size
    Gpusim.Config.default.launch_service_interval;
  if jobs > 1 then Printf.printf "Running experiment cells on %d domains\n" jobs;
  (match sampling with
  | Some sp ->
      Printf.printf
        "Sampling ON: stratified grid sampling (block frac %.2f, launch \
         frac %.2f); times are extrapolations, outputs unvalidated\n"
        sp.Gpusim.Config.block_frac sp.Gpusim.Config.launch_frac
  | None -> ());
  Harness.Pool.with_pool ~jobs @@ fun pool ->
  if enabled "table1" then wall (fun () -> Harness.Figures.table1 ~size ());
  if enabled "fig9" then
    wall (fun () ->
        let rows, _ = Harness.Figures.fig9 ?cfg ~pool ~size () in
        csv "fig9" (fun p -> Harness.Csv.fig9 p rows));
  if enabled "fig10" then
    wall (fun () ->
        let data = Harness.Figures.fig10 ?cfg ~pool ~size () in
        csv "fig10" (fun p -> Harness.Csv.fig10 p data));
  if enabled "fig11" then
    wall (fun () ->
        let data = Harness.Figures.fig11 ?cfg ~pool ~size () in
        csv "fig11" (fun p -> Harness.Csv.fig11 p data));
  if enabled "fig12" then
    wall (fun () -> ignore (Harness.Figures.fig12 ?cfg ~pool ~size ()));
  if enabled "fixed128" then
    wall (fun () -> ignore (Harness.Figures.fixed128 ?cfg ~pool ~size ()));
  if enabled "ablation" then
    wall (fun () ->
        List.iter Harness.Ablation.print (Harness.Ablation.all ~pool ()));
  if enabled "micro" then wall micro;
  (* gate experiment: only when named explicitly (exits 1 on failure) *)
  if (match wanted with Some l -> List.mem "engine-smoke" l | None -> false)
  then wall engine_smoke;
  (* scale experiments: only when named explicitly — the trajectory is a
     long run (three full fig9 tiers), the smoke is the @scale gate *)
  if (match wanted with Some l -> List.mem "scale" l | None -> false) then
    wall (fun () -> scale_trajectory ~pool ());
  if (match wanted with Some l -> List.mem "scale-smoke" l | None -> false)
  then wall scale_smoke
