(* The bytecode VM's golden suite: everything the simulator's execution
   engine must keep producing, pinned as checked-in values.

   Five layers, ordered by how bugs have historically surfaced:

     1. golden disassembly of the corpus fixtures — ISA/encoding changes
        become reviewable diffs;
     2. hand-written edge-semantics fixtures (NaN/inf, division by zero,
        checked shared-array and global OOB, atomics ordering, float
        accumulation order, a divergent barrier, a CAS loop) — where
        unboxing bugs hide: memory, metrics and *exception text* must
        match their goldens bit for bit;
     3. sanitizer findings — dpcheck's dynamic race/OOB reports on the
        bad_* corpus;
     4. run digests — every Table I benchmark (tiny datasets) and every
        Small-registry spec under all 8 pass combinations, plus each good
        corpus fixture: memory-dump digest, simulated cycles, grid,
        device-launch, block and thread counts, and a digest of every
        metrics field;
     5. block accounting — every Small-tier spec, road graphs included,
        under CDP, CDP+T and CDP+T+C+A with sampling that fires on small
        grids (fingerprint, cycles, every metrics field and every sampling
        statistic, so fractional block and launch weights are pinned), a
        block that raises after serializing launches, and the order of
        race reports over several blocks.

   The layer 2-4 goldens were recorded while the simulator still had a
   second, closure-tree interpreter, and both engines reproduced every
   entry bit for bit; the "engines-agreed" in test names refers to that.
   CORPUS_PROMOTE=1 rewrites every golden; review the diff.

   Float observations (memory values, metric cycle counters, simulated
   time) are rendered as IEEE-754 bit patterns, so NaNs compare equal to
   themselves and nothing is lost to rounding; digest lines print cycles
   with %.17g, which round-trips exactly. *)

open Gpusim

let t name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

(* ------------------------------------------------------------------ *)
(* Bit-exact observation reprs                                         *)
(* ------------------------------------------------------------------ *)

let value_repr : Value.t -> string = function
  | Value.Float f -> Fmt.str "F:%Lx" (Int64.bits_of_float f)
  | v -> Fmt.str "%a" Value.pp v

let dump_repr (dump : Value.t array list) =
  String.concat "\n"
    (List.mapi
       (fun i buf ->
         Fmt.str "buf%d: %s" i
           (String.concat " " (Array.to_list (Array.map value_repr buf))))
       dump)

let metrics_repr (m : Metrics.t) =
  let b = m.Metrics.breakdown in
  let bits = Int64.bits_of_float in
  Fmt.str
    "parent=%Lx child=%Lx agg=%Lx disagg=%Lx launch=%Lx makespan=%Lx \
     grids=%d dev=%d host=%d blocks=%d threads=%d pend=%d ser=%d races=%d \
     oob=%d reports=%a"
    (bits b.Metrics.parent_cycles)
    (bits b.Metrics.child_cycles)
    (bits b.Metrics.agg_cycles)
    (bits b.Metrics.disagg_cycles)
    (bits b.Metrics.launch_cycles)
    (bits m.Metrics.makespan) m.Metrics.grids_launched
    m.Metrics.device_launches m.Metrics.host_launches
    m.Metrics.blocks_executed m.Metrics.threads_executed
    m.Metrics.max_pending_launches m.Metrics.serialized_launches
    m.Metrics.races_detected m.Metrics.oob_detected
    Fmt.(Dump.list string)
    m.Metrics.race_reports

let device_dump dev = Device.dump_memory dev ~first:(Device.buffer_count dev)

let observe_device dev =
  Fmt.str "time=%Lx\n%s\n%s"
    (Int64.bits_of_float (Device.time dev))
    (metrics_repr (Device.metrics dev))
    (dump_repr (device_dump dev))

(* One digest line per run: the layer-4 golden form. *)
let digest s = Digest.to_hex (Digest.string s)

let run_digest ?fingerprint dev =
  let m = Device.metrics dev in
  Fmt.str "mem=%s%s cycles=%.17g grids=%d dev=%d blocks=%d threads=%d \
           metrics=%s"
    (digest (dump_repr (device_dump dev)))
    (match fingerprint with Some fp -> Fmt.str " fp=%d" fp | None -> "")
    (Device.time dev)
    m.Metrics.grids_launched m.Metrics.device_launches
    m.Metrics.blocks_executed m.Metrics.threads_executed
    (digest (metrics_repr m))

let edges_golden = "vm_edges.golden"
let digests_golden = "vm_runs.golden"

(* ------------------------------------------------------------------ *)
(* Layer 1: golden disassembly of corpus fixtures                      *)
(* ------------------------------------------------------------------ *)

(* Representative shapes: arithmetic + casts, barriers in loops, warp
   collectives, control flow, device-function calls, float builtins,
   rotated loops, dim3 manipulation, a nested launch, and a divergent
   barrier. The encoding is mode-dependent, so the loops fixture is also
   pinned under the checked (sanitizer) configuration. *)
let disasm_fixtures =
  [
    ("atomics", false);
    ("barriers", false);
    ("collectives", false);
    ("controlflow", false);
    ("device_calls", false);
    ("dim3s", false);
    ("floats", false);
    ("loops", false);
    ("loops_checked", true);
    ("nested", false);
    ("bad_divergent_barrier", false);
  ]

let disasm_tests =
  List.map
    (fun (base, checked) ->
      let file =
        (if base = "loops_checked" then "loops" else base) ^ ".minicu"
      in
      t (base ^ ": disassembly matches golden") (fun () ->
          let src =
            Test_corpus.read_file (Filename.concat Test_corpus.corpus_dir file)
          in
          let prog = Minicu.Parser.program ~file src in
          let cfg = { Config.default with check = checked } in
          let asm = Bytecode.disassemble (Bytecode.compile cfg prog) in
          Test_corpus.golden_check ~what:"disassembly" ~fixture:file
            ~golden_name:(base ^ ".disasm") asm))
    disasm_fixtures

(* ------------------------------------------------------------------ *)
(* Layer 2: edge-semantics fixtures                                    *)
(* ------------------------------------------------------------------ *)

(* Run [src] to completion (or to an exception) and return everything
   observable: simulated time, metrics, every device buffer bit for bit —
   or the raised exception's rendering. *)
let observe_run ~cfg ~grid ~block ~kernel ~mk_args src =
  let dev = Device.create ~cfg () in
  Device.load_program dev (Minicu.Parser.program src);
  let args = mk_args dev in
  match
    Device.launch dev ~kernel ~grid ~block ~args;
    ignore (Device.sync dev)
  with
  | () -> observe_device dev
  | exception e -> "raised: " ^ Printexc.to_string e

let edge_golden name ?(cfg = Config.test_config) ?(grid = (1, 1, 1))
    ?(block = (1, 1, 1)) ~kernel ~mk_args src =
  t name (fun () ->
      Test_corpus.golden_entry ~golden_name:edges_golden ~key:name
        (observe_run ~cfg ~grid ~block ~kernel ~mk_args src))

let out_ints n dev = [ Value.Ptr (Device.alloc_int_zeros dev n) ]
let out_floats n dev = [ Value.Ptr (Device.alloc_float_zeros dev n) ]

let edge_tests =
  [
    edge_golden "NaN and infinity arithmetic is bit-identical" ~kernel:"k"
      ~mk_args:(out_floats 12)
      {|
__global__ void k(float* o) {
  float z = 0.0;
  float pinf = 1.0 / z;
  float qnan = z / z;
  o[0] = qnan;
  o[1] = pinf;
  o[2] = 0.0 - pinf;
  o[3] = pinf + (0.0 - pinf);
  o[4] = qnan < 1.0 ? 1.0 : 2.0;
  o[5] = qnan == qnan ? 1.0 : 2.0;
  o[6] = min(qnan, 3.0);
  o[7] = max(qnan, 3.0);
  o[8] = sqrt(0.0 - 4.0);
  o[9] = log(0.0);
  o[10] = exp(1000.0);
  o[11] = pinf * 0.0;
}
|};
    edge_golden "negative zero and float cast edges" ~kernel:"k"
      ~mk_args:(out_floats 6)
      {|
__global__ void k(float* o) {
  float nz = 0.0 - 0.0;
  o[0] = nz;
  o[1] = nz == 0.0 ? 1.0 : 2.0;
  o[2] = (float)(int)1.9;
  o[3] = (float)(int)(0.0 - 1.9);
  o[4] = pow(2.0, 0.5);
  o[5] = fabs(nz);
}
|};
    edge_golden "integer division by zero raises identically" ~kernel:"k"
      ~mk_args:(fun dev ->
        [ Value.Ptr (Device.alloc_int_zeros dev 1); Value.Int 0 ])
      "__global__ void k(int* o, int n) { o[0] = 7 / n; }";
    edge_golden "integer modulo by zero raises identically" ~kernel:"k"
      ~mk_args:(fun dev ->
        [ Value.Ptr (Device.alloc_int_zeros dev 1); Value.Int 0 ])
      "__global__ void k(int* o, int n) { o[0] = 7 % n; }";
    edge_golden "checked shared-array OOB store raises at the same loc"
      ~cfg:{ Config.test_config with check = true }
      ~kernel:"k" ~mk_args:(out_ints 4)
      {|
__global__ void k(int* o) {
  __shared__ int s[4];
  s[threadIdx.x + 6] = 1;
  o[0] = s[0];
}
|};
    edge_golden "checked shared-array OOB load raises at the same loc"
      ~cfg:{ Config.test_config with check = true }
      ~kernel:"k" ~mk_args:(out_ints 4)
      {|
__global__ void k(int* o) {
  __shared__ int s[4];
  s[0] = 1;
  o[0] = s[threadIdx.x + 9];
}
|};
    edge_golden "global OOB raises identically (unchecked mode)"
      ~kernel:"k" ~mk_args:(out_ints 4)
      "__global__ void k(int* o) { o[100] = 1; }";
    edge_golden "atomics ordering across a block is deterministic"
      ~block:(64, 1, 1) ~kernel:"k" ~mk_args:(out_ints 8)
      {|
__global__ void k(int* o) {
  atomicAdd(&o[0], threadIdx.x + 1);
  int prev = atomicExch(&o[1], threadIdx.x);
  atomicMax(&o[2], prev);
  int seen = atomicCAS(&o[3], threadIdx.x, threadIdx.x + 1);
  atomicSub(&o[4], seen);
  atomicMin(&o[5], 0 - threadIdx.x);
}
|};
    edge_golden "atomic float accumulation keeps summation order"
      ~block:(32, 1, 1) ~kernel:"k"
      ~mk_args:(fun dev ->
        [ Value.Ptr (Device.alloc_floats dev [| 0.0; 0.1 |]) ])
      {|
__global__ void k(float* o) {
  atomicAdd(&o[0], 0.1 * (float)(threadIdx.x % 3));
}
|};
    edge_golden "divergent barrier resolves identically at runtime"
      ~block:(32, 1, 1) ~kernel:"k" ~mk_args:(out_ints 32)
      {|
__global__ void k(int* o) {
  if (threadIdx.x < 16) {
    o[threadIdx.x] = 1;
    __syncthreads();
  }
  o[0] = 2;
}
|};
    edge_golden "CAS retry loop converges identically" ~block:(16, 1, 1)
      ~kernel:"k" ~mk_args:(out_ints 2)
      {|
__global__ void k(int* o) {
  int seen = o[0];
  while (atomicCAS(&o[0], seen, seen + 1) != seen) {
    seen = o[0];
  }
  atomicAdd(&o[1], 1);
}
|};
  ]

(* ------------------------------------------------------------------ *)
(* Layer 3: sanitizer findings                                         *)
(* ------------------------------------------------------------------ *)

(* dpoptc --check runs Analysis.Dynamic over the program; its findings
   embed source locations and are deduplicated per address, so epoch
   tags, locs and dedup are all pinned here. *)
let sanitizer_golden base =
  t (base ^ ": dynamic sanitizer findings match golden") (fun () ->
      let file = base ^ ".minicu" in
      let src =
        Test_corpus.read_file (Filename.concat Test_corpus.corpus_dir file)
      in
      let prog = Minicu.Parser.program ~file src in
      let dirs = Analysis.Dynamic.directives src in
      let findings = Analysis.Dynamic.run ~cfg:Config.test_config prog dirs in
      if findings = [] then
        Alcotest.failf "%s: expected at least one dynamic finding" base;
      Test_corpus.golden_entry ~golden_name:edges_golden
        ~key:("sanitizer " ^ base)
        (String.concat "\n" findings))

let sanitizer_tests =
  List.map sanitizer_golden [ "bad_race_rw"; "bad_race_ww"; "bad_oob_dynamic" ]

(* ------------------------------------------------------------------ *)
(* Layer 4: run digests                                                *)
(* ------------------------------------------------------------------ *)

let spec_digest ~tier (spec : Benchmarks.Bench_common.spec) (vname, v) =
  slow
    (Fmt.str "%s/%s under %s: engines-agreed golden digest (%s)" spec.name
       spec.dataset vname tier)
    (fun () ->
      let dev = Benchmarks.Bench_common.load_variant ~cfg:Config.default spec v in
      let fingerprint = spec.run dev in
      Test_corpus.golden_entry ~golden_name:digests_golden
        ~key:(Fmt.str "%s %s/%s %s" tier spec.name spec.dataset vname)
        (run_digest ~fingerprint dev))

let combos =
  List.map
    (fun (l, o) -> (l, Benchmarks.Bench_common.Cdp o))
    (Dpopt.Pipeline.enumerate ())

(* Every Table I benchmark on tiny datasets, under all 8 pass combos. *)
let tiny_tests =
  List.concat_map
    (fun spec -> List.map (spec_digest ~tier:"tiny" spec) combos)
    (Test_benchmarks.specs ())

(* The full Small registry under all 8 pass combos. *)
let small_tests =
  List.concat_map
    (fun spec -> List.map (spec_digest ~tier:"small" spec) combos)
    (Benchmarks.Registry.all ~size:Benchmarks.Registry.Small ())

(* How each good corpus fixture is driven: entry kernel, grid and block
   widths, arguments. [ramp] is nondecreasing, so it doubles as CSR row
   offsets; [mixed] spans negatives, zero, small and large values. *)
type arg = Ints of int array | Zeros of int | Float_zeros of int | Int of int

let ramp n = Array.init n (fun i -> 3 * i / 2)
let mixed n = Array.init n (fun i -> (i * 37 mod 211) - 20)

let corpus_runs =
  [
    ("atomics", "tally", 2, 32, [ Zeros 8; Ints (mixed 64); Int 50 ]);
    ("barriers", "reduce", 3, 128, [ Ints (mixed 300); Zeros 3; Int 300 ]);
    ("collectives", "scan", 1, 32, [ Ints (mixed 32); Zeros 64 ]);
    ("controlflow", "classify", 2, 32, [ Zeros 64; Ints (mixed 64); Int 60 ]);
    ("device_calls", "k", 2, 32, [ Zeros 64; Int 40 ]);
    ("dim3s", "k", 1, 32, [ Zeros 64; Int 3 ]);
    ("floats", "fmath", 2, 32, [ Float_zeros 64; Ints (mixed 64); Int 60 ]);
    ("loops", "loops", 1, 32, [ Zeros 32; Int 12 ]);
    ("multikernel", "driver", 1, 32, [ Ints (ramp 40); Int 40 ]);
    ("nested", "parent", 2, 32, [ Ints (ramp 65); Zeros 128; Int 64 ]);
    ("precedence", "k", 1, 1, [ Zeros 10; Int 13; Int 5; Int (-7) ]);
    ( "promotion",
      "relax",
      1,
      32,
      [ Ints (mixed 32); Ints (ramp 32); Int 30; Int 0 ] );
    ("shared_flags", "iterate", 1, 32, [ Ints (ramp 32); Int 28 ]);
  ]

let corpus_digest (base, kernel, grid, block, args) =
  t (base ^ ": engines-agreed golden digest") (fun () ->
      let file = base ^ ".minicu" in
      let src =
        Test_corpus.read_file (Filename.concat Test_corpus.corpus_dir file)
      in
      let dev = Device.create ~cfg:Config.default () in
      Device.load_program dev (Minicu.Parser.program ~file src);
      let arg = function
        | Ints a -> Value.Ptr (Device.alloc_ints dev a)
        | Zeros n -> Value.Ptr (Device.alloc_int_zeros dev n)
        | Float_zeros n -> Value.Ptr (Device.alloc_float_zeros dev n)
        | Int n -> Value.Int n
      in
      Device.launch dev ~kernel ~grid:(grid, 1, 1) ~block:(block, 1, 1)
        ~args:(List.map arg args);
      ignore (Device.sync dev);
      Test_corpus.golden_entry ~golden_name:digests_golden
        ~key:("corpus " ^ base) (run_digest dev))

(* Every good fixture has a run, so a new fixture cannot go unpinned. *)
let corpus_coverage =
  t "every good corpus fixture has a pinned run" (fun () ->
      let good =
        List.filter_map
          (fun f ->
            let base = Filename.chop_suffix f ".minicu" in
            if String.length base >= 4 && String.sub base 0 4 = "bad_" then None
            else Some base)
          Test_corpus.fixtures
      in
      Alcotest.(check (list string))
        "fixtures with runs" good
        (List.map (fun (b, _, _, _, _) -> b) corpus_runs))

(* ------------------------------------------------------------------ *)
(* Layer 5: block accounting                                           *)
(* ------------------------------------------------------------------ *)

(* Sampling that fires on Small-registry grids, so most committed blocks
   and many launches carry a fractional weight. *)
let probe_sampling =
  {
    Config.block_threshold = 2;
    block_frac = 0.3;
    strata = 3;
    seed = 7;
    launch_threshold = 2;
    launch_frac = 0.4;
  }

let sampling_repr (s : Metrics.sampling_stats) =
  Fmt.str
    "sampled_grids=%d sampled_blocks=%d skipped_blocks=%d \
     sampled_launches=%d skipped_launches=%d est_total=%Lx est_variance=%Lx"
    s.Metrics.sampled_grids s.Metrics.sampled_blocks s.Metrics.skipped_blocks
    s.Metrics.sampled_launches s.Metrics.skipped_launches
    (Int64.bits_of_float s.Metrics.est_total)
    (Int64.bits_of_float s.Metrics.est_variance)

let probe_versions =
  let open Dpopt in
  [
    ("CDP", Pipeline.none);
    ("CDP+T", Pipeline.make ~threshold:64 ());
    ( "CDP+T+C+A",
      Pipeline.make ~threshold:16 ~cfactor:4
        ~granularity:(Aggregation.Multi_block 4) () );
  ]

(* Every Small-registry spec, sampled: the weighted counters and the
   sampling statistics, bit for bit. *)
let sampled_digest (spec : Benchmarks.Bench_common.spec) (vname, opts) =
  slow
    (Fmt.str "%s/%s under %s: sampled run pinned" spec.name spec.dataset vname)
    (fun () ->
      let cfg = { Config.default with sampling = Some probe_sampling } in
      let dev =
        Benchmarks.Bench_common.load_variant ~cfg spec
          (Benchmarks.Bench_common.Cdp opts)
      in
      let fingerprint = spec.run dev in
      let m = Device.metrics dev in
      Test_corpus.golden_entry ~golden_name:digests_golden
        ~key:(Fmt.str "sampled %s/%s %s" spec.name spec.dataset vname)
        (Fmt.str "fp=%d cycles=%.17g\n%s\n%s" fingerprint (Device.time dev)
           (metrics_repr m)
           (sampling_repr m.Metrics.sampling)))

let sampled_tests =
  let size = Benchmarks.Registry.Small in
  List.concat_map
    (fun spec -> List.map (sampled_digest spec) probe_versions)
    (Benchmarks.Registry.all ~size () @ Benchmarks.Registry.road ~size ())

(* Run [src] under [cfg] to completion or to an exception; either way the
   device metrics are observed afterwards. *)
let observe_metrics ~cfg ~grid ~block ~kernel ~mk_args src =
  let dev = Device.create ~cfg () in
  Device.load_program dev (Minicu.Parser.program src);
  let args = mk_args dev in
  let outcome =
    match
      Device.launch dev ~kernel ~grid ~block ~args;
      ignore (Device.sync dev)
    with
    | () -> "completed"
    | exception e -> "raised: " ^ Printexc.to_string e
  in
  Fmt.str "%s\n%s" outcome (metrics_repr (Device.metrics dev))

(* Thread 0 of each block makes three serialized calls; the second block
   to run sees the first block's increments and stores out of bounds. The
   grid is sampled at weight 1.5, so the committed block adds
   round(1.5 * 3) serialized launches and the failing block leaves its
   three, unweighted, with its out-of-bounds count. *)
let failing_block_src =
  {|
__device__ void bump_serial(int* d) {
  d[0] = d[0] + 1;
}

__global__ void k(int* d, int n) {
  if (threadIdx.x == 0) {
    bump_serial(d);
    bump_serial(d);
    bump_serial(d);
  }
  __syncthreads();
  if (d[0] > 3) {
    d[n + threadIdx.x] = 1;
  }
}
|}

(* Every block's 64 threads store to 20 cells of its own: 20 racing
   addresses per block, of which 16 are reported. *)
let racy_src =
  {|
__global__ void k(int* d) {
  d[blockIdx.x * 20 + threadIdx.x % 20] = threadIdx.x;
}
|}

let accounting_tests =
  let checked = { Config.test_config with check = true } in
  [
    t "a failing block leaves its serialized and out-of-bounds counts"
      (fun () ->
        let cfg =
          {
            checked with
            sampling =
              Some { probe_sampling with block_frac = 0.5; strata = 1 };
          }
        in
        Test_corpus.golden_entry ~golden_name:digests_golden
          ~key:"accounting failing block"
          (observe_metrics ~cfg ~grid:(3, 1, 1) ~block:(64, 1, 1) ~kernel:"k"
             ~mk_args:(fun dev -> out_ints 4 dev @ [ Value.Int 4 ])
             failing_block_src));
    t "race reports: newest block first, 16 per block" (fun () ->
        Test_corpus.golden_entry ~golden_name:digests_golden
          ~key:"accounting racy kernel"
          (observe_metrics ~cfg:checked ~grid:(3, 1, 1) ~block:(64, 1, 1)
             ~kernel:"k" ~mk_args:(out_ints 60) racy_src));
  ]

(* ------------------------------------------------------------------ *)
(* Load superinstructions                                              *)
(* ------------------------------------------------------------------ *)

(* Opcode words the packer emitted, one per dispatch: an instruction
   consumed by a preceding superinstruction packs to zero words. *)
let packed_opcodes (p : Bytecode.prog) =
  List.filter_map
    (fun i ->
      let w = p.Bytecode.bp_woff.(i) in
      if p.Bytecode.bp_woff.(i + 1) > w then Some p.Bytecode.bp_ops.(w)
      else None)
    (List.init (Array.length p.Bytecode.bp_code) Fun.id)

let load_kernel body =
  Fmt.str
    {|
__global__ void k(int* o, int n) {
  int s = 0;
  for (int k = 0; k < n; k = k + 1) { %s }
  o[0] = s;
}
|}
    body

let fusion_tests =
  let fused ~cfg body =
    packed_opcodes (Bytecode.compile cfg (Minicu.Parser.program (load_kernel body)))
  in
  let has op ops = List.mem op ops in
  [
    t "indexed loads fuse with their operand coercions" (fun () ->
        let cfg = Config.test_config in
        let local = fused ~cfg "int j = k; s = s + o[j];" in
        Alcotest.(check bool) "as_ptr.ld for o[j]" true (has 63 local);
        let expr = fused ~cfg "s = s + o[k & 3];" in
        Alcotest.(check bool) "cast.ld for o[k & 3]" true (has 64 expr);
        Alcotest.(check bool) "no as_ptr.ld for o[k & 3]" false (has 63 expr);
        let checked =
          fused ~cfg:{ cfg with Config.check = true } "int j = k; s = s + o[j];"
        in
        Alcotest.(check bool) "checked loads stay unfused" false
          (has 63 checked || has 64 checked));
    (* The fused arms run the unfused sub-steps in order, so a failing
       operand or access raises exactly what the separate instructions
       raise. *)
    t "fused loads raise the unfused diagnostics" (fun () ->
        let run body =
          observe_run ~cfg:Config.test_config ~grid:(1, 1, 1) ~block:(1, 1, 1)
            ~kernel:"k"
            ~mk_args:(fun dev -> out_ints 4 dev @ [ Value.Int 1 ])
            (load_kernel body)
        in
        let raised msg =
          "raised: " ^ Printexc.to_string (Value.Runtime_error msg)
        in
        Alcotest.(check string) "as_ptr.ld, non-pointer operand"
          (raised "expected a pointer, got ()")
          (run "int* q; int j = k; s = s + q[j];");
        Alcotest.(check string) "as_ptr.ld, past the end"
          (raised "out-of-bounds access: offset 4 in buffer 0 of size 4")
          (run "int j = k + 4; s = s + o[j];");
        Alcotest.(check string) "cast.ld, before the start"
          (raised "out-of-bounds access: offset -1 in buffer 0 of size 4")
          (run "s = s + o[k - 1];"));
  ]

let suite =
  disasm_tests @ edge_tests @ sanitizer_tests @ tiny_tests @ small_tests
  @ List.map corpus_digest corpus_runs
  @ [ corpus_coverage ] @ fusion_tests @ sampled_tests @ accounting_tests
