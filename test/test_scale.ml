(* Paper-scale execution: parallel block dispatch and stratified grid
   sampling (Gpusim.Sched, Gpusim.Blocksafe, Gpusim.Memory typed storage).

   The central invariants pinned here:
   - parallel dispatch ([Config.block_jobs] > 1) is byte-identical to the
     serial drain — memory dumps and every metrics field;
   - stratified sampling is a deterministic function of (seed, stream,
     grid id): the same config picks the same blocks at any -j, and the
     off-switches ([block_frac = 1.0], [block_threshold = 0], [--exact])
     reproduce the exact scheduler bit-for-bit;
   - sampled runs extrapolate within the documented error bound on the
     benchmarks the @scale gate covers. *)

open Gpusim

let t name f = Alcotest.test_case name `Quick f

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Harness: run a driver under a config, snapshot dump + metrics        *)
(* ------------------------------------------------------------------ *)

(* Everything observable about a finished run. Structural equality over
   this is the "byte-identical" check: every metrics field (breakdown,
   sampling stats, counters) and every memory cell. *)
type outcome = {
  o_time : float;
  o_dump : Value.t array list;
  o_metrics : string;
}

let metrics_str m = Fmt.str "%a" Metrics.pp m

let run_driver ?(cfg = Config.test_config) ~src drive : outcome * Device.t =
  let dev = Device.create ~cfg () in
  Device.load_program dev (Minicu.Parser.program src);
  drive dev;
  let time = Device.sync dev in
  ( {
      o_time = time;
      o_dump = Device.dump_memory dev ~first:(Device.buffer_count dev);
      o_metrics = metrics_str (Device.metrics dev);
    },
    dev )

let check_same_outcome label (a : outcome) (b : outcome) =
  Alcotest.(check (float 0.0)) (label ^ ": simulated time") a.o_time b.o_time;
  Alcotest.(check string) (label ^ ": metrics") a.o_metrics b.o_metrics;
  Alcotest.(check bool) (label ^ ": memory dump") true (a.o_dump = b.o_dump)

(* ------------------------------------------------------------------ *)
(* Kernels                                                             *)
(* ------------------------------------------------------------------ *)

(* Per-thread-window writer: provably cross-block safe (Owned). *)
let owned_src =
  {|
__global__ void owned(int* out, int n, int iters) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int s = 0;
  for (int k = 0; k < iters; k = k + 1) { s = s + k; }
  if (i < n) { out[i] = s + i; }
}
|}

(* Commutative reduction into a shared cell: provably safe (Reduce). *)
let reduce_src =
  {|
__global__ void reduce(int* data, int* sum, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { atomicAdd(&sum[0], data[i]); }
}
|}

(* Block-dependent trip count: non-uniform per-block work, for strata. *)
let skewed_src =
  {|
__global__ void skewed(int* out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int trips = (blockIdx.x % 8) * 12 + 4;
  int s = 0;
  for (int k = 0; k < trips; k = k + 1) { s = s + k; }
  if (i < n) { out[i] = s; }
}
|}

let drive_owned ?(blocks = 8) ?(iters = 50) dev =
  let n = blocks * 32 in
  let out = Device.alloc_int_zeros dev n in
  Device.launch dev ~kernel:"owned" ~grid:(blocks, 1, 1) ~block:(32, 1, 1)
    ~args:[ Value.Ptr out; Value.Int n; Value.Int iters ]

let drive_reduce ?(blocks = 8) dev =
  let n = blocks * 32 in
  let data = Device.alloc_ints dev (Array.init n (fun i -> i + 1)) in
  let sum = Device.alloc_int_zeros dev 1 in
  Device.launch dev ~kernel:"reduce" ~grid:(blocks, 1, 1) ~block:(32, 1, 1)
    ~args:[ Value.Ptr data; Value.Ptr sum; Value.Int n ]

let drive_skewed ?(blocks = 64) dev =
  let n = blocks * 32 in
  let out = Device.alloc_int_zeros dev n in
  Device.launch dev ~kernel:"skewed" ~grid:(blocks, 1, 1) ~block:(32, 1, 1)
    ~args:[ Value.Ptr out; Value.Int n ]

(* ------------------------------------------------------------------ *)
(* Blocksafe classification                                            *)
(* ------------------------------------------------------------------ *)

let analyze src name =
  let prog = Minicu.Parser.program src in
  let f = List.find (fun (f : Minicu.Ast.func) -> f.f_name = name) prog in
  Blocksafe.analyze prog f

let test_blocksafe_classify () =
  let s = analyze owned_src "owned" in
  Alcotest.(check bool) "owned safe" true s.bs_safe;
  (match s.bs_modes.(0) with
  | Blocksafe.Owned 1 -> ()
  | Blocksafe.Read_only -> Alcotest.fail "out: expected Owned 1, got Read_only"
  | Blocksafe.Owned k -> Alcotest.failf "out: expected Owned 1, got Owned %d" k
  | Blocksafe.Reduce -> Alcotest.fail "out: expected Owned 1, got Reduce");
  let s = analyze reduce_src "reduce" in
  Alcotest.(check bool) "reduce safe" true s.bs_safe;
  Alcotest.(check bool) "data is Read_only" true
    (s.bs_modes.(0) = Blocksafe.Read_only);
  Alcotest.(check bool) "sum is Reduce" true (s.bs_modes.(1) = Blocksafe.Reduce);
  (* launching kernels are never batchable *)
  let s = analyze Test_helpers.nested_src "parent" in
  Alcotest.(check bool) "launching parent unsafe" false s.bs_safe

(* ------------------------------------------------------------------ *)
(* Parallel dispatch: byte-identity and occupancy                       *)
(* ------------------------------------------------------------------ *)

let par_identity ~src ~drive () =
  let serial, _ = run_driver ~src drive in
  let par, dev4 =
    run_driver ~cfg:{ Config.test_config with block_jobs = 4 } ~src drive
  in
  check_same_outcome "-j1 vs -j4" serial par;
  let batches, blocks = Device.par_stats dev4 in
  Alcotest.(check bool) "parallel batches formed" true
    (batches > 0 && blocks >= 2 * batches)

let test_par_identity_owned = par_identity ~src:owned_src ~drive:drive_owned
let test_par_identity_reduce = par_identity ~src:reduce_src ~drive:drive_reduce

(* Unsafe (launching) kernels fall back to serial execution inside the
   parallel drain — identical results, no concurrent batches. *)
let test_par_identity_unsafe () =
  let run jobs =
    let cfg = { Config.test_config with block_jobs = jobs } in
    let r = Dpopt.Pipeline.run ~opts:Dpopt.Pipeline.none
        (Minicu.Parser.program Test_helpers.nested_src) in
    let data, m = Test_helpers.run_nested ~cfg r in
    (data, metrics_str m)
  in
  let d1, m1 = run 1 and d4, m4 = run 4 in
  Alcotest.(check bool) "nested output" true (d1 = d4);
  Alcotest.(check string) "nested metrics" m1 m4

(* Benchmark-level identity: one registry cell, exact, -j1 vs -j4. *)
let test_par_identity_benchmark () =
  match Benchmarks.Registry.find ~name:"BT" ~dataset:"T0032-C16" () with
  | None -> Alcotest.fail "BT/T0032-C16 missing from registry"
  | Some spec ->
      let run jobs =
        let cfg = { Config.default with block_jobs = jobs } in
        Harness.Experiment.run ~cfg spec
          (Harness.Variant.Cdp Dpopt.Pipeline.none)
      in
      let a = run 1 and b = run 4 in
      Alcotest.(check (float 0.0)) "time" a.time b.time;
      Alcotest.(check int) "fingerprint" a.fingerprint b.fingerprint;
      Alcotest.(check bool) "snapshot" true (a.snap = b.snap)

(* Batch admission: a buffer may be shared within a batch only by uses of
   the same class (read with read, reduce with reduce), never by an Owned
   use — within one grid or across grids. [k] has one parameter of each
   class; every case launches two 8x32 grids of it before one sync, each
   naming its (owned, read, reduce) buffers, and pins the number of
   parallel batches formed at -j4 and byte-identity with -j1. *)
let classes_src =
  {|
__global__ void k(int* o, int* r, int* s) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  o[i] = r[i] + 1;
  atomicAdd(&s[0], r[i]);
}
|}

let test_batch_admission () =
  let case label ~batches launches =
    let drive dev =
      let bufs = ref [] in
      let buf name =
        match List.assoc_opt name !bufs with
        | Some p -> Value.Ptr p
        | None ->
            let p = Device.alloc_ints dev (Array.init 256 Fun.id) in
            bufs := (name, p) :: !bufs;
            Value.Ptr p
      in
      List.iter
        (fun (o, r, s) ->
          let o = buf o in
          let r = buf r in
          let s = buf s in
          Device.launch dev ~kernel:"k" ~grid:(8, 1, 1) ~block:(32, 1, 1)
            ~args:[ o; r; s ])
        launches
    in
    let serial, _ = run_driver ~src:classes_src drive in
    let par, dev =
      run_driver
        ~cfg:{ Config.test_config with block_jobs = 4 }
        ~src:classes_src drive
    in
    check_same_outcome label serial par;
    (* all 16 blocks run in batches, or none does *)
    Alcotest.(check (pair int int))
      (label ^ ": (batches, blocks)")
      (batches, if batches = 0 then 0 else 16)
      (Device.par_stats dev)
  in
  case "owned A + owned B (disjoint)" ~batches:1
    [ ("A", "r1", "s1"); ("B", "r2", "s2") ];
  case "owned A + read A" ~batches:2 [ ("A", "r1", "s1"); ("o2", "A", "s2") ];
  case "read A + read A" ~batches:1 [ ("o1", "A", "s1"); ("o2", "A", "s2") ];
  case "reduce S + reduce S" ~batches:1
    [ ("o1", "r1", "S"); ("o2", "r2", "S") ];
  case "reduce S + read S" ~batches:2 [ ("o1", "r1", "S"); ("o2", "S", "s2") ];
  case "one grid reading and owning the same buffer" ~batches:0
    [ ("A", "A", "s1"); ("B", "B", "s2") ];
  case "one grid reducing into its read buffer" ~batches:0
    [ ("o1", "S", "S"); ("o2", "T", "T") ]

(* ------------------------------------------------------------------ *)
(* Sampling: determinism, off-switches, extrapolation                   *)
(* ------------------------------------------------------------------ *)

let sampled_cfg ?(block_jobs = 1) () =
  { Config.test_config with block_jobs; sampling = Some Config.default_sampling }

let test_sampling_deterministic () =
  let run jobs =
    fst
      (run_driver ~cfg:(sampled_cfg ~block_jobs:jobs ()) ~src:skewed_src
         drive_skewed)
  in
  let a = run 1 and b = run 1 and c = run 4 in
  check_same_outcome "sampled rerun" a b;
  check_same_outcome "sampled -j1 vs -j4" a c

let test_sampling_triggers () =
  let o, dev =
    run_driver ~cfg:(sampled_cfg ()) ~src:skewed_src drive_skewed
  in
  let m = Device.metrics dev in
  Alcotest.(check bool) "sampled" true (Metrics.sampled m);
  Alcotest.(check bool) "skipped blocks" true (m.sampling.skipped_blocks > 0);
  Alcotest.(check bool) "simulated blocks" true
    (m.sampling.sampled_blocks > 0);
  Alcotest.(check bool) "variance accumulated" true
    (m.sampling.est_total > 0.0);
  Alcotest.(check bool) "error bound finite" true
    (Float.is_finite (Metrics.rel_std_error m));
  ignore o

(* frac = 1.0 and threshold = 0 both mean "no sampling": bit-identical to
   [sampling = None]. *)
let test_sampling_off_switches () =
  let exact, _ = run_driver ~src:skewed_src drive_skewed in
  let full_frac =
    {
      Config.test_config with
      sampling =
        Some
          {
            Config.default_sampling with
            block_frac = 1.0;
            launch_frac = 1.0;
          };
    }
  in
  let a, _ = run_driver ~cfg:full_frac ~src:skewed_src drive_skewed in
  check_same_outcome "frac=1.0 is exact" exact a;
  let zero_thresh =
    {
      Config.test_config with
      sampling =
        Some
          {
            Config.default_sampling with
            block_threshold = 0;
            launch_threshold = 0;
          };
    }
  in
  let b, _ = run_driver ~cfg:zero_thresh ~src:skewed_src drive_skewed in
  check_same_outcome "threshold=0 is exact" exact b

(* Extrapolated total time within a loose bound on the skewed kernel (the
   tight 10% bound on real benchmarks is the @scale gate's job). *)
let test_sampling_extrapolation () =
  let exact, _ = run_driver ~src:skewed_src drive_skewed in
  let sampled, _ =
    run_driver ~cfg:(sampled_cfg ()) ~src:skewed_src drive_skewed
  in
  let err = Float.abs (sampled.o_time -. exact.o_time) /. exact.o_time in
  if err > 0.10 then
    Alcotest.failf "extrapolation error %.1f%% (exact %.0f, sampled %.0f)"
      (100.0 *. err) exact.o_time sampled.o_time

(* ------------------------------------------------------------------ *)
(* Large-tier ingredients and the supporting harness fixes              *)
(* ------------------------------------------------------------------ *)

(* The large tier's RMAT graph must be in the paper's regime: hub degree
   two orders of magnitude above the mean (cf. kron_g500 in Table I). *)
let test_kron_degree_skew () =
  let g = Workloads.Graph_gen.kron ~scale:13 ~edge_factor:16 () in
  let ratio =
    float_of_int (Workloads.Csr.max_degree g) /. Workloads.Csr.avg_degree g
  in
  if ratio < 100.0 then
    Alcotest.failf "kron scale 13: max/avg degree %.1f < 100" ratio

(* Large-tier cycle counts must render as exact integers, not float
   mantissa approximations, in the CSV/JSON artifacts. *)
let test_csv_cycles () =
  Alcotest.(check string) "small" "42" (Harness.Csv.cycles 42.0);
  Alcotest.(check string) "zero" "0" (Harness.Csv.cycles 0.0);
  Alcotest.(check string)
    "large integral" "1234567890123456"
    (Harness.Csv.cycles 1234567890123456.0);
  Alcotest.(check string)
    "beyond int range" "10000000000000000000"
    (Harness.Csv.cycles 1e19)

let test_geomean_guard () =
  let raises xs =
    match Harness.Stats.geomean xs with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "rejects inf" true (raises [ 1.0; infinity ]);
  Alcotest.(check bool) "rejects nan" true (raises [ 1.0; nan ]);
  Alcotest.(check bool) "rejects zero" true (raises [ 0.0 ]);
  (* log-domain accumulation: a product that overflows floats is fine *)
  let g = Harness.Stats.geomean (List.init 100 (fun _ -> 1e300)) in
  Alcotest.(check bool) "no overflow" true
    (Float.is_finite g && Float.abs (g /. 1e300 -. 1.0) < 1e-6)

let test_extrapolate_report () =
  let exact, dev = run_driver ~src:skewed_src drive_skewed in
  Alcotest.(check bool) "exact run: no report" true
    (Costmodel.Extrapolate.of_metrics (Device.metrics dev) = None);
  ignore exact;
  let _, dev = run_driver ~cfg:(sampled_cfg ()) ~src:skewed_src drive_skewed in
  match Costmodel.Extrapolate.of_metrics (Device.metrics dev) with
  | None -> Alcotest.fail "sampled run: expected a report"
  | Some r ->
      Alcotest.(check bool) "CI brackets the estimate" true
        (r.ex_ci95_lo <= r.ex_est_total && r.ex_est_total <= r.ex_ci95_hi);
      Alcotest.(check bool) "partial coverage" true
        (r.ex_block_coverage > 0.0 && r.ex_block_coverage < 1.0);
      Alcotest.(check bool) "counts" true
        (r.ex_sampled_blocks > 0 && r.ex_skipped_blocks > 0);
      let s = Fmt.str "%a" Costmodel.Extrapolate.pp r in
      Alcotest.(check bool) "pp mentions CI" true
        (contains ~affix:"95% CI" s)

let test_parsafety_report () =
  let entries =
    Analysis.Parsafety.report (Minicu.Parser.program owned_src)
  in
  (match entries with
  | [ e ] ->
      Alcotest.(check string) "kernel" "owned" e.ps_kernel;
      Alcotest.(check bool) "safe" true e.ps_summary.bs_safe
  | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l));
  let entries =
    Analysis.Parsafety.report (Minicu.Parser.program Test_helpers.nested_src)
  in
  let parent =
    List.find (fun (e : Analysis.Parsafety.entry) -> e.ps_kernel = "parent")
      entries
  in
  Alcotest.(check bool) "parent serial" false parent.ps_summary.bs_safe;
  let s = Fmt.str "%a" Analysis.Parsafety.pp entries in
  Alcotest.(check bool) "pp mentions serial" true
    (contains ~affix:"serial" s)

(* The @scale gate's bound, pinned on a real registry cell: a sampled
   medium-tier benchmark extrapolates within 10% of the exact run. *)
let test_benchmark_extrapolation_medium () =
  match
    Benchmarks.Registry.find ~size:Benchmarks.Registry.Medium ~name:"BT"
      ~dataset:"T0032-C16" ()
  with
  | None -> Alcotest.fail "BT/T0032-C16 missing from registry"
  | Some spec ->
      let run cfg = Harness.Experiment.run ~cfg spec (Harness.Variant.Cdp Dpopt.Pipeline.none) in
      let exact = run Config.default in
      let sampled =
        run { Config.default with sampling = Some Config.default_sampling }
      in
      Alcotest.(check bool) "sampling triggered" true sampled.sampled;
      let err = Float.abs (sampled.time -. exact.time) /. exact.time in
      if err > 0.10 then
        Alcotest.failf
          "medium BT extrapolation error %.1f%% (exact %.0f, sampled %.0f, \
           reported rse %.3f)"
          (100.0 *. err) exact.time sampled.time sampled.rel_std_error

let suite =
  [
    t "blocksafe classifies owned/reduce/unsafe" test_blocksafe_classify;
    t "parallel dispatch: owned kernel byte-identical"
      test_par_identity_owned;
    t "parallel dispatch: reduce kernel byte-identical"
      test_par_identity_reduce;
    t "parallel dispatch: unsafe kernels fall back, identical"
      test_par_identity_unsafe;
    t "parallel dispatch: benchmark cell identical at -j4"
      test_par_identity_benchmark;
    t "sampling: deterministic at any -j" test_sampling_deterministic;
    t "sampling: triggers and reports error bound" test_sampling_triggers;
    t "sampling: frac=1/threshold=0 are exact" test_sampling_off_switches;
    t "sampling: extrapolation within 10% on skewed kernel"
      test_sampling_extrapolation;
    t "large tier: kron scale 13 has 100x degree skew" test_kron_degree_skew;
    t "csv: cycle counts render as exact integers" test_csv_cycles;
    t "stats: geomean rejects non-finite, no overflow" test_geomean_guard;
    t "extrapolate: report only on sampled runs, CI sane"
      test_extrapolate_report;
    t "parsafety: classifies kernels, renders report" test_parsafety_report;
    t "sampling: medium benchmark cell within 10% of exact"
      test_benchmark_extrapolation_medium;
    t "parallel dispatch: batch admission shares a buffer only by class"
      test_batch_admission;
  ]
