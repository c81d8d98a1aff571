(* The bytecode VM's golden suite: everything the simulator's execution
   engine must keep producing, pinned as checked-in values.

   Ten layers, the first five ordered by how bugs have historically
   surfaced:

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
        race reports over several blocks;
     6. aggregated runs at every granularity — the road specs under all 8
        pass combinations, and every Small spec under CDP+A and CDP+T+C+A
        at warp, multi-block(8) and grid granularity;
     7. block-uniform prefixes — kernels that open with a loop reading no
        [threadIdx], whose runs the VM shortens by running that loop once
        per block, unchecked and checked, and which kernels have such a
        prefix;
     8. the rewritten dispatch paths — [dim3(...).f] projections, operand
        coercions, charges around branches, launches, barriers and warp
        collectives, and stores into typed buffers;
     9. charge conservation — the packed stream charges what [bp_code]
        charges between every two points where costs may be read;
    10. calls of device functions — aliased and assigned parameters,
        returns, launches, raises, barriers and warp collectives inside
        a callee, [dim3] arguments, recursion, shared arrays and
        sanitizer reports around a call — and which calls the lowering
        keeps.

   Layers 6 and 7 were recorded before the VM ran prefixes once per
   block, layer 8 before the type-directed lowering, charge carrying and
   the typed memory path, layer 10 while every call ran as a VM call.

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

(* Opcode words the packer emitted, one per dispatch, found by walking
   the word stream with [Bytecode.packed_width]. *)
let packed_opcodes (p : Bytecode.prog) =
  let rec walk w acc =
    if w >= Array.length p.bp_ops then List.rev acc
    else walk (w + Bytecode.packed_width p.bp_ops w) (p.bp_ops.(w) :: acc)
  in
  walk 0 []

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
        let local = fused ~cfg "int j = n - k; s = s + o[j];" in
        Alcotest.(check bool) "as_ptr.ld for o[j]" true (has 63 local);
        let int_local = fused ~cfg "int j = k; s = s + o[j];" in
        Alcotest.(check bool) "as_ptr.ldi for o[j], j int-valued" true
          (has 70 int_local);
        let expr = fused ~cfg "s = s + o[(n - k) & 3];" in
        Alcotest.(check bool) "cast.ld for o[(n - k) & 3]" true (has 64 expr);
        Alcotest.(check bool) "no as_ptr.ld for o[(n - k) & 3]" false
          (has 63 expr);
        let checked =
          fused ~cfg:{ cfg with Config.check = true } "int j = k; s = s + o[j];"
        in
        Alcotest.(check bool) "checked loads stay unfused" false
          (has 63 checked || has 64 checked || has 70 checked));
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

(* ------------------------------------------------------------------ *)
(* Layer 6: aggregated runs at every granularity                       *)
(* ------------------------------------------------------------------ *)

(* Layer 4 runs the Small registry at block granularity only. These add
   the road specs under all 8 pass combinations and every Small spec,
   road included, with aggregation at warp, multi-block(8) and grid
   granularity: each aggregated child kernel opens with the
   disaggregation search, which every block of every child grid runs. *)
let agg_digest ~key (spec : Benchmarks.Bench_common.spec) opts =
  slow
    (Fmt.str "%s/%s under %s: run pinned" spec.name spec.dataset key)
    (fun () ->
      let dev =
        Benchmarks.Bench_common.load_variant ~cfg:Config.default spec
          (Benchmarks.Bench_common.Cdp opts)
      in
      let fingerprint = spec.run dev in
      Test_corpus.golden_entry ~golden_name:digests_golden
        ~key:(Fmt.str "small %s/%s %s" spec.name spec.dataset key)
        (run_digest ~fingerprint dev))

let granularity_tests =
  let size = Benchmarks.Registry.Small in
  let road = Benchmarks.Registry.road ~size () in
  let at g =
    List.filter
      (fun (l, _) -> l = "CDP+A" || l = "CDP+T+C+A")
      (Dpopt.Pipeline.enumerate ~granularity:g ())
  in
  List.concat_map
    (fun spec ->
      List.map
        (fun (vname, opts) -> agg_digest ~key:vname spec opts)
        (Dpopt.Pipeline.enumerate ()))
    road
  @ List.concat_map
      (fun spec ->
        List.concat_map
          (fun g ->
            List.map
              (fun (vname, opts) ->
                agg_digest
                  ~key:
                    (Fmt.str "%s %s" vname
                       (Dpopt.Aggregation.granularity_to_string g))
                  spec opts)
              (at g))
          Dpopt.Aggregation.[ Warp; Multi_block 8; Grid ])
      (Benchmarks.Registry.all ~size () @ road)

(* ------------------------------------------------------------------ *)
(* Layer 7: block-uniform prefixes                                     *)
(* ------------------------------------------------------------------ *)

(* Kernels that open with a loop reading no [threadIdx], the shape of the
   aggregation's disaggregation search. Each runs to completion or to an
   exception; the outcome and everything observable afterwards
   (simulated time, metrics with race reports, every buffer) are pinned,
   unchecked and under [Config.check]. *)
let prefix_golden name ?(cfg = Config.test_config) ~grid ~block ~mk_args src =
  t ("block-uniform prefix: " ^ name) (fun () ->
      let dev = Device.create ~cfg () in
      Device.load_program dev (Minicu.Parser.program src);
      let args = mk_args dev in
      let outcome =
        match
          Device.launch dev ~kernel:"k" ~grid ~block ~args;
          ignore (Device.sync dev)
        with
        | () -> "completed"
        | exception e -> "raised: " ^ Printexc.to_string e
      in
      Test_corpus.golden_entry ~golden_name:digests_golden
        ~key:("prefix " ^ name)
        (outcome ^ "\n" ^ observe_device dev))

(* Every thread sums the first [n] cells of the buffer it then stores
   to, so each thread's prefix reads what earlier threads wrote. *)
let self_feeding_src =
  {|
__global__ void k(int* out, int n) {
  int s = 0;
  for (int k = 0; k < n; k = k + 1) { s = s + out[k & 255]; }
  out[threadIdx.x] = s + 1;
}
|}

(* A binary search over [keys] by block index, then a store that depends
   on the search and on the thread. *)
let search_src =
  {|
__global__ void k(int* keys, int* out, int n) {
  int lo = 0;
  int hi = n - 1;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (keys[mid] > blockIdx.x) { hi = mid; } else { lo = mid + 1; }
  }
  int base = keys[lo];
  out[blockIdx.x * blockDim.x + threadIdx.x] = base * 1000 + lo * 10 + threadIdx.x;
}
|}

(* The loop runs past the end of [out]. *)
let oob_src =
  {|
__global__ void k(int* out, int n) {
  int s = 0;
  for (int k = 0; k < n; k = k + 1) { s = s + out[k]; }
  out[threadIdx.x & 3] = s;
}
|}

(* After the loop, a load through a local copy of the pointer: the first
   load the prefix may not contain, in the middle of an
   [as_ptr; cast.int; load] run. *)
let local_pointer_src =
  {|
__global__ void k(int* in, int* out, int n) {
  int s = 0;
  for (int k = 0; k < n; k = k + 1) { s = s + in[k & 7]; }
  int* q = in;
  int j = s & 7;
  s = s + q[j];
  out[threadIdx.x] = s + threadIdx.x;
}
|}

let search_args dev =
  [
    Value.Ptr (Device.alloc_ints dev [| 1; 1; 3; 4; 4; 6; 9; 9 |]);
    Value.Ptr (Device.alloc_int_zeros dev 256);
    Value.Int 8;
  ]

let prefix_tests =
  let checked = { Config.test_config with check = true } in
  let self_feeding ?cfg name =
    prefix_golden ?cfg name ~grid:(2, 1, 1) ~block:(64, 1, 1)
      ~mk_args:(fun dev -> out_ints 256 dev @ [ Value.Int 12 ])
      self_feeding_src
  in
  let oob ?cfg name =
    prefix_golden ?cfg name ~grid:(1, 1, 1) ~block:(64, 1, 1)
      ~mk_args:(fun dev -> out_ints 4 dev @ [ Value.Int 8 ])
      oob_src
  in
  let one_thread ?cfg name =
    prefix_golden ?cfg name ~grid:(3, 1, 1) ~block:(1, 1, 1)
      ~mk_args:search_args search_src
  in
  [
    self_feeding "reads what earlier threads stored";
    prefix_golden "searches once per block over two warps" ~grid:(4, 1, 1)
      ~block:(48, 1, 1) ~mk_args:search_args search_src;
    oob "loop loads out of bounds";
    one_thread "one-thread blocks";
    prefix_golden "ends inside a fusable load" ~grid:(2, 1, 1)
      ~block:(40, 1, 1)
      ~mk_args:(fun dev ->
        [
          Value.Ptr (Device.alloc_ints dev (Array.init 8 Fun.id));
          Value.Ptr (Device.alloc_int_zeros dev 40);
          Value.Int 5;
        ])
      local_pointer_src;
    self_feeding ~cfg:checked "checked: reads what earlier threads stored";
    oob ~cfg:checked "checked: loop loads out of bounds";
    one_thread ~cfg:checked "checked: one-thread blocks";
  ]

(* Which kernels have a prefix: the disaggregation search of every
   aggregated child kernel, up to its first [threadIdx] read, and none of
   the benchmarks' own CDP kernels (their threads read [threadIdx] before
   any loop). *)
let prefix_structure_test =
  t "block-uniform prefix: every aggregated kernel, no CDP kernel" (fun () ->
      let specs =
        List.fold_left
          (fun acc (s : Benchmarks.Bench_common.spec) ->
            if List.exists
                 (fun (o : Benchmarks.Bench_common.spec) -> o.name = s.name)
                 acc
            then acc
            else s :: acc)
          []
          (Benchmarks.Registry.all ~size:Benchmarks.Registry.Small ())
      in
      Alcotest.(check int) "benchmarks" 7 (List.length specs);
      let compile src opts =
        let r = Dpopt.Pipeline.run ~opts (Minicu.Parser.program src) in
        Bytecode.compile Config.default r.prog
      in
      let first_thread_idx (p : Bytecode.prog) fi =
        let stop =
          if fi + 1 < Array.length p.bp_funcs then p.bp_funcs.(fi + 1).bf_entry
          else Array.length p.bp_code
        in
        let rec go i =
          if i = stop then -1
          else
            match p.bp_code.(i) with
            | Bytecode.I_special (_, Sp_thread_idx)
            | I_special_comp (_, Sp_thread_idx, _) ->
                i
            | _ -> go (i + 1)
        in
        go p.bp_funcs.(fi).bf_entry
      in
      List.iter
        (fun (spec : Benchmarks.Bench_common.spec) ->
          Array.iter
            (fun (f : Bytecode.func) ->
              Alcotest.(check bool)
                (Fmt.str "%s: %s has no prefix" spec.name f.bf_name)
                true (f.bf_uniform = None))
            (compile spec.cdp_src Dpopt.Pipeline.none).bp_funcs;
          List.iter
            (fun g ->
              List.iter
                (fun opts ->
                  let p = compile spec.cdp_src opts in
                  let label =
                    Fmt.str "%s %s %s" spec.name (Dpopt.Pipeline.label opts)
                      (Dpopt.Aggregation.granularity_to_string g)
                  in
                  let ends =
                    List.filter_map
                      (fun fi ->
                        let f = p.bp_funcs.(fi) in
                        if String.ends_with ~suffix:"_agg" f.bf_name then
                          Some
                            ( f.bf_name,
                              Option.map
                                (fun (u : Bytecode.uniform) -> u.u_end)
                                f.bf_uniform,
                              first_thread_idx p fi )
                        else None)
                      (List.init (Array.length p.bp_funcs) Fun.id)
                  in
                  Alcotest.(check bool) (label ^ ": aggregated kernels") true
                    (ends <> []);
                  List.iter
                    (fun (name, u_end, first) ->
                      Alcotest.(check (option int))
                        (Fmt.str "%s: %s ends at its first threadIdx read"
                           label name)
                        (Some first) u_end)
                    ends)
                [
                  Dpopt.Pipeline.make ~granularity:g ();
                  Dpopt.Pipeline.make ~threshold:32 ~cfactor:4 ~granularity:g ();
                ])
            Dpopt.Aggregation.[ Warp; Block; Multi_block 8; Grid ])
        specs)

(* ------------------------------------------------------------------ *)
(* Layer 8: the rewritten dispatch paths                               *)
(* ------------------------------------------------------------------ *)

(* Edge fixtures for the paths the lowering, the packer and the typed
   memory path take fewer dispatches on: a [dim3(...)] read for one
   component, coercions of operands that are not ints at run time, an
   atomic inside a projected [dim3], charges around branches, launches,
   barriers and warp collectives, a raise after several branches, and
   int, float and bool stores into 2048-element typed buffers. Recorded
   before any of these rewrites, in [vm_edges.golden]. Buffers of more
   than 64 elements are pinned by digest. *)
let compact_dump dev =
  String.concat "\n"
    (List.mapi
       (fun i buf ->
         let vs = Array.to_list (Array.map value_repr buf) in
         Fmt.str "buf%d: %s" i
           (if Array.length buf > 64 then
              Fmt.str "#%d %s" (Array.length buf) (digest (String.concat " " vs))
            else String.concat " " vs))
       (device_dump dev))

(* The outcome, simulated time, every metrics field and the compact
   memory dump of one launch of [kernel], pinned under [key]. *)
let path_golden ~key ~cfg ~grid ~block ~kernel ~mk_args src =
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
  Test_corpus.golden_entry ~golden_name:edges_golden ~key
    (Fmt.str "%s\ntime=%Lx\n%s\n%s" outcome
       (Int64.bits_of_float (Device.time dev))
       (metrics_repr (Device.metrics dev))
       (compact_dump dev))

let rewrite_golden name ?(cfg = Config.test_config) ?(grid = (1, 1, 1))
    ?(block = (1, 1, 1)) ~kernel ~mk_args src =
  t ("rewritten path: " ^ name) (fun () ->
      path_golden ~key:("rewritten " ^ name) ~cfg ~grid ~block ~kernel ~mk_args
        src)

let projection_src =
  {|
__global__ void k(int* o, int v) {
  o[0] = dim3(v, 1, 1).x;
  o[1] = dim3(v, 1, 1).y;
  o[2] = dim3(v + 1, v, 7).z;
}
|}

let typed_src =
  {|
__global__ void k(int* a, float* f, int* b, int* o) {
  int i = threadIdx.x;
  a[i * 7] = i + 1;
  f[i * 5] = 0.5 * (float)i;
  b[100 + i] = i;
  if (i == 3) { b[10] = 2.5; }
  if (i == 4) { b[11] = true; }
  if (i == 5) { f[2047] = 7; }
  __syncthreads();
  o[i] = a[i * 7] + a[2047 - i];
  o[32 + i] = b[10 + (i & 1)];
  f[i * 5 + 1] = f[i * 5] + f[2047];
}
|}

let typed_args dev =
  [
    Value.Ptr (Device.alloc_ints dev (Array.init 2048 (fun i -> (i * 13) - 900)));
    Value.Ptr (Device.alloc_floats dev (Array.init 2048 (fun i -> float_of_int i /. 8.0)));
    Value.Ptr (Device.alloc_int_zeros dev 2048);
    Value.Ptr (Device.alloc_int_zeros dev 64);
  ]

let rewrite_tests =
  let checked = { Config.test_config with check = true } in
  let ptr dev n = Value.Ptr (Device.alloc_int_zeros dev n) in
  [
    rewrite_golden "dim3(v, 1, 1) components of a float argument"
      ~kernel:"k"
      ~mk_args:(fun dev -> out_ints 4 dev @ [ Value.Float (-2.75) ])
      projection_src;
    rewrite_golden "dim3(v, 1, 1).x of a pointer argument raises" ~kernel:"k"
      ~mk_args:(fun dev -> out_ints 4 dev @ [ ptr dev 2 ])
      "__global__ void k(int* o, int v) { o[0] = dim3(v, 1, 1).x; }";
    rewrite_golden "dim3(v, 1, 1).y of a pointer argument raises" ~kernel:"k"
      ~mk_args:(fun dev -> out_ints 4 dev @ [ ptr dev 2 ])
      "__global__ void k(int* o, int v) { o[0] = 5; o[1] = dim3(v, 1, 1).y; }";
    rewrite_golden "dim3(a, b, c) coerces z first" ~kernel:"k"
      ~mk_args:(fun dev ->
        out_ints 4 dev @ [ ptr dev 1; Value.Int 2; ptr dev 3 ])
      {|
__global__ void k(int* o, int a, int b, int c) {
  dim3 d = dim3(a, b, c);
  o[0] = d.x + d.y + d.z;
}
|};
    rewrite_golden "dim3(a, b, c) of a float, a bool and an int" ~kernel:"k"
      ~mk_args:(fun dev ->
        out_ints 4 dev @ [ Value.Float 3.5; Value.Bool true; Value.Int 4 ])
      {|
__global__ void k(int* o, int a, int b, int c) {
  dim3 d = dim3(a, b, c);
  o[0] = d.x + d.y + d.z;
  o[1] = d.x;
}
|};
    rewrite_golden "an atomic in an unselected dim3 component fires"
      ~block:(4, 1, 1) ~kernel:"k"
      ~mk_args:(fun dev -> out_ints 12 dev @ [ Value.Int 9 ])
      {|
__global__ void k(int* o, int k) {
  o[1 + threadIdx.x] = dim3(k, atomicAdd(&o[0], 1), 0).x;
  o[5 + threadIdx.x] = dim3(k, atomicAdd(&o[0], 1), 0).y;
}
|};
    rewrite_golden "indices and a member assignment of non-int values"
      ~block:(2, 1, 1) ~kernel:"k"
      ~mk_args:(fun dev ->
        out_ints 16 dev @ [ Value.Float 1.5; Value.Float 2.9; Value.Float 5.75 ])
      {|
__global__ void k(int* o, int i, int f, float g) {
  o[i * 2 + 1] = 3;
  o[f] = 4;
  dim3 d = dim3(1, 2, 3);
  d.y = g;
  o[0] = d.y;
  o[threadIdx.x * 2 + 9] = 6;
}
|};
    rewrite_golden "a launch after a loop with if, continue and break"
      ~block:(4, 1, 1) ~kernel:"k"
      ~mk_args:(fun dev -> out_ints 24 dev @ [ Value.Int 9 ])
      {|
__global__ void child(int* o, int v) {
  atomicAdd(&o[16 + threadIdx.x], v);
}

__global__ void k(int* o, int n) {
  int s = 0;
  for (int i = 0; i < n + threadIdx.x; i = i + 1) {
    if (i % 3 == 0) { continue; }
    s = s + i;
    if (s > 14 + threadIdx.x) { break; }
  }
  o[threadIdx.x] = s;
  child<<<1, 2>>>(o, s);
  o[8 + threadIdx.x] = s * 2;
}
|};
    rewrite_golden "a thread raises after several branches" ~cfg:checked
      ~block:(8, 1, 1) ~kernel:"k"
      ~mk_args:(fun dev -> out_ints 6 dev @ [ Value.Int 5 ])
      {|
__global__ void k(int* o, int n) {
  int s = 0;
  if (threadIdx.x > 1) { s = s + 1; } else { s = s + 2; }
  if (s > 1) { o[0] = 1; }
  while (s < n + threadIdx.x) { s = s + 1; }
  o[s] = 1;
}
|};
    rewrite_golden "a barrier and warp collectives between charged statements"
      ~block:(64, 1, 1) ~kernel:"k" ~mk_args:(out_ints 192)
      {|
__global__ void k(int* o) {
  int a = threadIdx.x * 3;
  if (threadIdx.x % 5 == 0) { a = a + 1; }
  o[threadIdx.x] = a;
  __syncthreads();
  int b = o[(threadIdx.x + 1) % 64] + a;
  int c = warp_sum(b);
  o[64 + threadIdx.x] = c + b;
  __syncwarp();
  int w = threadIdx.x / 32 * 32;
  int l = w + 2;
  o[128 + threadIdx.x] = warp_scan_excl(a) + warp_bcast(b, l)
    + warp_bcast(a, threadIdx.x / 32 * 32 + blockDim.x - 61);
}
|};
    rewrite_golden "typed buffers: int, float and bool stores, read back"
      ~block:(32, 1, 1) ~kernel:"k" ~mk_args:typed_args typed_src;
    rewrite_golden "checked: typed buffers: int, float and bool stores"
      ~cfg:checked ~block:(32, 1, 1) ~kernel:"k" ~mk_args:typed_args typed_src;
  ]

(* ------------------------------------------------------------------ *)
(* Layer 9: charges survive packing                                    *)
(* ------------------------------------------------------------------ *)

(* The packed opcodes that charge: [charge], the [loop.cc] forms and the
   charges carried into a compare-branch, jump or return. All read their
   tag and pool amount from the two words after the opcode. *)
let charging_ops = [ 47; 59; 60; 61; 62; 66; 67; 68; 69 ]

(* Cycles per tag charged by the packed words [lo, hi). *)
let packed_charges (p : Bytecode.prog) lo hi =
  let acc = Array.make Metrics.num_tags 0.0 in
  let w = ref lo in
  while !w < hi do
    if List.mem p.bp_ops.(!w) charging_ops then begin
      let tag = p.bp_ops.(!w + 1) in
      acc.(tag) <- acc.(tag) +. p.bp_fpool.(p.bp_ops.(!w + 2))
    end;
    w := !w + Bytecode.packed_width p.bp_ops !w
  done;
  if !w <> hi then Alcotest.failf "words [%d, %d) decode past %d" lo hi hi;
  acc

(* Cycles per tag charged by the instructions [lo, hi) of [bp_code]. *)
let logical_charges (p : Bytecode.prog) lo hi =
  let acc = Array.make Metrics.num_tags 0.0 in
  for i = lo to hi - 1 do
    match p.bp_code.(i) with
    | Bytecode.I_charge (tag, c) -> acc.(tag) <- acc.(tag) +. c
    | _ -> ()
  done;
  acc

(* Cut points of [bp_code]: function and followup entries, prefix ends
   and jump targets; after every branch, jump and return; and on both
   sides of every call, launch, launch check, warp op, sync and
   [shared.hit]. A charge may move within a span between two cuts and
   nowhere else. *)
let charge_cuts (p : Bytecode.prog) =
  let n = Array.length p.bp_code in
  let cut = Array.make (n + 1) false in
  cut.(0) <- true;
  cut.(n) <- true;
  Array.iter
    (fun (f : Bytecode.func) ->
      cut.(f.bf_entry) <- true;
      Option.iter (fun e -> cut.(e) <- true) f.bf_followup;
      Option.iter
        (fun (u : Bytecode.uniform) -> cut.(u.u_end) <- true)
        f.bf_uniform)
    p.bp_funcs;
  Array.iteri
    (fun i ins ->
      match (ins : Bytecode.instr) with
      | I_cmp_jf (_, _, _, tg)
      | I_cmp_jf_int (_, _, _, tg)
      | I_cmp_jt (_, _, _, tg)
      | I_cmp_jt_int (_, _, _, tg)
      | I_jump tg
      | I_jump_if_false (_, tg)
      | I_jump_if_true (_, tg) ->
          cut.(tg) <- true;
          cut.(i + 1) <- true
      | I_shared_hit (_, _, tg) ->
          cut.(tg) <- true;
          cut.(i) <- true;
          cut.(i + 1) <- true
      | I_ret _ | I_ret_unit -> cut.(i + 1) <- true
      | I_call _ | I_launch _ | I_launch_check _ | I_warp _ | I_warp_bcast _
      | I_sync ->
          cut.(i) <- true;
          cut.(i + 1) <- true
      | _ -> ())
    p.bp_code;
  cut

(* Every span between consecutive cuts charges the same cycles per tag in
   [bp_ops] as in [bp_code]. *)
let check_charges label (p : Bytecode.prog) =
  let cut = charge_cuts p in
  let tags a =
    String.concat " "
      (List.filter_map
         (fun (tag, c) -> if c = 0.0 then None else Some (Fmt.str "%d:%g" tag c))
         (List.mapi (fun tag c -> (tag, c)) (Array.to_list a)))
  in
  let lo = ref 0 in
  for i = 1 to Array.length p.bp_code do
    if cut.(i) then begin
      let logical = logical_charges p !lo i
      and packed = packed_charges p p.bp_woff.(!lo) p.bp_woff.(i) in
      if logical <> packed then
        Alcotest.failf "%s: instructions [%d, %d) charge {%s}, packed {%s}" label
          !lo i (tags logical) (tags packed);
      lo := i
    end
  done

let conservation_tests =
  let compile cfg prog = Bytecode.compile cfg prog in
  let checked = { Config.default with check = true } in
  [
    t "charges: every corpus fixture, unchecked and checked" (fun () ->
        List.iter
          (fun file ->
            let src =
              Test_corpus.read_file (Filename.concat Test_corpus.corpus_dir file)
            in
            let prog = Minicu.Parser.program ~file src in
            check_charges file (compile Config.default prog);
            check_charges (file ^ " (checked)") (compile checked prog))
          Test_corpus.fixtures);
    t "charges: every Small-registry program under all 8 combinations"
      (fun () ->
        let seen = Hashtbl.create 8 in
        List.iter
          (fun (spec : Benchmarks.Bench_common.spec) ->
            if not (Hashtbl.mem seen spec.name) then begin
              Hashtbl.add seen spec.name ();
              check_charges (spec.name ^ " no-CDP")
                (compile Config.default (Minicu.Parser.program spec.no_cdp_src));
              List.iter
                (fun (label, opts) ->
                  let r =
                    Dpopt.Pipeline.run ~opts (Minicu.Parser.program spec.cdp_src)
                  in
                  check_charges
                    (Fmt.str "%s %s" spec.name label)
                    (compile Config.default r.prog))
                (Dpopt.Pipeline.enumerate ())
            end)
          (Benchmarks.Registry.all ~size:Benchmarks.Registry.Small ()));
    (* Where the charges go: a branch's block charges in its compare, the
       last block in its return, and a launch's charge stays before it. *)
    t "charges ride their block's branch and return, not a launch" (fun () ->
        let ops src =
          packed_opcodes (compile Config.default (Minicu.Parser.program src))
        in
        let branch =
          ops
            "__global__ void k(int* o, int n) { if (n > 0) { o[0] = 1; \
             return; } o[1] = 2; }"
        in
        Alcotest.(check (list int))
          "charge.jfi, a store, charge.ret, a store, charge.ret"
          [ 67; 22; 1; 1; 26; 69; 22; 1; 1; 26; 69 ]
          branch;
        let launch =
          ops
            {|
__global__ void c(int* o) { o[0] = 1; }
__global__ void k(int* o) { o[1] = 2; c<<<1, 1>>>(o); }
|}
        in
        Alcotest.(check bool) "a standalone charge before the launch" true
          (List.mem 47 launch));
  ]

(* ------------------------------------------------------------------ *)
(* Layer 10: calls of device functions                                 *)
(* ------------------------------------------------------------------ *)

(* Edge fixtures for device-function calls: parameters the callee
   assigns, arguments that alias each other or the call's destination,
   returns from nested loops, launches, raises, barriers and warp
   collectives inside the callee, [dim3] arguments of int, float and
   pointer components, recursion and a callee with its own shared array,
   locals declared [int] that hold a float, and sanitizer reports inside
   and around a call. Recorded while every call ran as a VM call, in
   [vm_edges.golden]. *)
let call_golden name ?(cfg = Config.test_config) ?(grid = (1, 1, 1))
    ?(block = (1, 1, 1)) ~kernel ~mk_args src =
  t ("call path: " ^ name) (fun () ->
      path_golden ~key:("call " ^ name) ~cfg ~grid ~block ~kernel ~mk_args src)

(* Stores [t.x / 2] and [t.y + t.z] at [o[i]] and [o[i + 1]]. *)
let put_dim3_src =
  {|
__device__ void put(int* o, int i, dim3 t) {
  o[i] = t.x / 2;
  o[i + 1] = t.y + t.z;
}
|}

let call_tests =
  let checked = { Config.test_config with check = true } in
  [
    call_golden "a callee assigns its int and member-assigns its dim3"
      ~block:(4, 1, 1) ~kernel:"k"
      ~mk_args:(fun dev -> out_ints 32 dev @ [ Value.Int 5 ])
      {|
__device__ int f(int a, dim3 d) {
  a = a + 10;
  d.y = a;
  return a + d.x + d.y;
}

__global__ void k(int* o, int n) {
  int a = threadIdx.x + n;
  dim3 d = dim3(a, 2, 3);
  int r = f(a, d);
  o[threadIdx.x * 8] = r;
  o[threadIdx.x * 8 + 1] = a;
  o[threadIdx.x * 8 + 2] = d.x;
  o[threadIdx.x * 8 + 3] = d.y;
  o[threadIdx.x * 8 + 4] = d.z;
  o[threadIdx.x * 8 + 5] = f(a, dim3(a, 2, 3));
  o[threadIdx.x * 8 + 6] = a;
}
|};
    call_golden "x = f(x, x)" ~block:(4, 1, 1) ~kernel:"k"
      ~mk_args:(out_ints 16)
      {|
__device__ int g(int p, int q) {
  int s = p * 3;
  if (s > 10) {
    return s - q;
  }
  return p + q + s;
}

__device__ int h(int p, int q) {
  p = p + 1;
  return p * 10 + q;
}

__global__ void k(int* o) {
  int x = threadIdx.x;
  x = g(x, x);
  o[threadIdx.x] = x;
  x = g(x, x + 1);
  o[4 + threadIdx.x] = x;
  x = h(x, x);
  o[8 + threadIdx.x] = x;
  int y = h(x, x) + x;
  o[12 + threadIdx.x] = y;
}
|};
    call_golden "o[i] = f(o[i])" ~block:(4, 1, 1) ~kernel:"k"
      ~mk_args:(fun dev ->
        [ Value.Ptr (Device.alloc_ints dev [| 3; -4; 7; 0; 9; 1; -2; 5 |]) ])
      {|
__device__ int inc(int v) {
  return v * 2 + 1;
}

__global__ void k(int* o) {
  int i = threadIdx.x;
  o[i] = inc(o[i]);
  o[i + 4] = inc(o[i]) + inc(o[i + 4]);
}
|};
    call_golden "an early return from a nested loop and return; in a void callee"
      ~block:(8, 1, 1) ~kernel:"k"
      ~mk_args:(fun dev ->
        [
          Value.Ptr (Device.alloc_ints dev [| 0; 5; 9; 12; 13; 20 |]);
          Value.Ptr (Device.alloc_int_zeros dev 16);
          Value.Int 6;
        ])
      {|
__device__ int find(int* a, int n, int key) {
  for (int i = 0; i < n; i = i + 1) {
    int j = 0;
    while (j < 2) {
      if (a[i] + j == key) {
        return i * 2 + j;
      }
      j = j + 1;
    }
  }
  return 0 - 1;
}

__device__ void mark(int* o, int i, int v) {
  if (v < 0) {
    return;
  }
  o[i] = v;
}

__global__ void k(int* a, int* o, int n) {
  int t = threadIdx.x;
  int r = find(a, n, t * 3);
  mark(o, t, r);
  o[8 + t] = r;
}
|};
    call_golden "a callee launches after a loop" ~block:(4, 1, 1) ~kernel:"k"
      ~mk_args:(fun dev -> out_ints 12 dev @ [ Value.Int 3 ])
      {|
__global__ void child(int* o, int v) {
  atomicAdd(&o[threadIdx.x], v);
}

__device__ int spawn(int* o, int n) {
  int s = 0;
  for (int i = 0; i < n; i = i + 1) {
    if (i % 2 == 1) {
      continue;
    }
    s = s + i;
  }
  child<<<1, 2>>>(o, s);
  return s;
}

__global__ void k(int* o, int n) {
  int a = threadIdx.x * 2;
  int r = spawn(o, n + threadIdx.x);
  o[4 + threadIdx.x] = r + a;
  child<<<1, 1>>>(o, a);
}
|};
    call_golden "a callee raises after a store" ~block:(4, 1, 1) ~kernel:"k"
      ~mk_args:(fun dev -> out_ints 8 dev @ [ Value.Int 2 ])
      {|
__device__ int bad(int* o, int i, int d) {
  o[4 + i] = 7;
  return 10 / d;
}

__global__ void k(int* o, int n) {
  o[threadIdx.x] = 3;
  o[threadIdx.x] = bad(o, threadIdx.x, n - threadIdx.x);
}
|};
    call_golden "callees park at a barrier and a warp collective"
      ~block:(64, 1, 1) ~kernel:"k" ~mk_args:(out_ints 128)
      {|
__device__ int stage(int* o, int v) {
  o[threadIdx.x] = v;
  __syncthreads();
  return o[(threadIdx.x + 1) % 64];
}

__device__ int wsum(int v) {
  int w = warp_sum(v);
  return w + v;
}

__global__ void k(int* o) {
  int a = threadIdx.x * 3;
  int b = stage(o, a);
  int c = wsum(b);
  o[64 + threadIdx.x] = b + c;
}
|};
    call_golden "dim3 arguments of an int local, a float local and built-ins"
      ~block:(2, 2, 1) ~kernel:"k" ~mk_args:(out_ints 24)
      (put_dim3_src
      ^ {|
__global__ void k(int* o) {
  int j = threadIdx.x + 4;
  int base = (threadIdx.y * 2 + threadIdx.x) * 6;
  put(o, base, dim3(j, 0, threadIdx.y));
  float f = 2.5;
  put(o, base + 2, dim3(f, 1, 1));
  put(o, base + 4, dim3(blockDim.x, j, 5));
}
|});
    call_golden "a dim3 argument of a pointer local raises at the call"
      ~kernel:"k" ~mk_args:(out_ints 4)
      (put_dim3_src
      ^ {|
__global__ void k(int* o) {
  int* q = o;
  o[3] = 1;
  put(o, 0, dim3(q, 1, 1));
}
|});
    call_golden "a dim3 parameter passed whole to a launch" ~block:(2, 1, 1)
      ~kernel:"k" ~mk_args:(out_ints 16)
      {|
__global__ void child(int* o) {
  atomicAdd(&o[blockIdx.x * 4 + threadIdx.x], 1 + blockIdx.y);
}

__device__ void go(int* o, dim3 g, dim3 b) {
  child<<<g, b>>>(o);
  o[8 + g.x] = b.x;
}

__global__ void k(int* o) {
  int j = 2;
  go(o, dim3(j, 1, 1), dim3(blockDim.x, 1, 1));
}
|};
    call_golden "a recursive device function" ~block:(6, 1, 1) ~kernel:"k"
      ~mk_args:(out_ints 6)
      {|
__device__ int fact(int n) {
  if (n <= 1) {
    return 1;
  }
  return n * fact(n - 1);
}

__global__ void k(int* o) {
  o[threadIdx.x] = fact(threadIdx.x + 1);
}
|};
    call_golden "a callee with a shared array, called from one with its own"
      ~block:(8, 1, 1) ~kernel:"k" ~mk_args:(out_ints 8)
      {|
__device__ int helper(int v) {
  __shared__ int s[8];
  s[threadIdx.x] = v;
  __syncthreads();
  return s[(threadIdx.x + 1) % 8];
}

__global__ void k(int* o) {
  __shared__ int t[8];
  t[threadIdx.x] = threadIdx.x * 5;
  __syncthreads();
  o[threadIdx.x] = helper(t[(threadIdx.x + 2) % 8]) + t[threadIdx.x];
}
|};
    call_golden "locals declared int that hold a float" ~kernel:"k"
      ~mk_args:(fun dev ->
        [ Value.Ptr (Device.alloc_floats dev (Array.make 8 0.25)) ])
      {|
__global__ void k(float* o) {
  int j = 1.5;
  o[j] = 4.5;
  o[2] = o[j] + 1.0;
  int m = 0;
  m = o[1];
  o[m + 1] = o[m];
  o[m] = 9.0;
}
|};
    call_golden "checked: an out-of-bounds store of a call's value"
      ~cfg:checked ~block:(2, 1, 1) ~kernel:"k" ~mk_args:(out_ints 4)
      {|
__device__ int twice(int v) {
  int w = v * 2;
  return w;
}

__global__ void k(int* o) {
  int i = threadIdx.x;
  o[i + 3] = twice(i);
}
|};
    call_golden "checked: a race inside a callee" ~cfg:checked
      ~block:(4, 1, 1) ~kernel:"k" ~mk_args:(out_ints 8)
      {|
__device__ void race(int* o, int v) {
  o[v % 2] = v;
}

__global__ void k(int* o) {
  race(o, threadIdx.x);
  o[2 + threadIdx.x] = 1;
}
|};
  ]

(* Which calls stay calls. The passes extract a child's per-thread and
   per-block bodies into [*_serial_thread] and [*_block_body] functions,
   which the lowering inlines; what may still be a [call] is a [_serial]
   entry (its call counts a serialized launch), a function that calls
   another, or one that declares a shared array. *)
let call_structure_test =
  t "calls: every Small-registry program under all 8 combinations" (fun () ->
      let has sub s =
        let n = String.length sub in
        let rec at i =
          i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
        in
        at 0
      in
      let serial_calls = ref 0 in
      let check label (p : Bytecode.prog) =
        Array.iter
          (function
            | Bytecode.I_call (_, fi, _) ->
                let name = p.bp_funcs.(fi).bf_name in
                let f = Minicu.Ast.find_func_exn p.bp_ast name in
                let calls =
                  Minicu.Ast_util.fold_exprs_in_stmts
                    (fun found e ->
                      found
                      ||
                      match e with
                      | Minicu.Ast.Call (g, _) -> Minicu.Builtins.find g = None
                      | _ -> false)
                    false f.f_body
                in
                if has "_serial_thread" name || has "_block_body" name then
                  Alcotest.failf "%s: calls %s" label name;
                if Runtime.has_serial_suffix name then incr serial_calls
                else if not (calls || Minicu.Ast_util.contains_shared f.f_body)
                then Alcotest.failf "%s: calls the leaf %s" label name
            | _ -> ())
          p.bp_code
      in
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (spec : Benchmarks.Bench_common.spec) ->
          if not (Hashtbl.mem seen spec.name) then begin
            Hashtbl.add seen spec.name ();
            List.iter
              (fun (label, opts) ->
                let r =
                  Dpopt.Pipeline.run ~opts (Minicu.Parser.program spec.cdp_src)
                in
                check
                  (Fmt.str "%s %s" spec.name label)
                  (Bytecode.compile Config.default r.prog))
              (Dpopt.Pipeline.enumerate ())
          end)
        (Benchmarks.Registry.all ~size:Benchmarks.Registry.Small ());
      if !serial_calls = 0 then Alcotest.fail "no _serial entry is called")

let suite =
  disasm_tests @ edge_tests @ sanitizer_tests @ tiny_tests @ small_tests
  @ List.map corpus_digest corpus_runs
  @ [ corpus_coverage ] @ fusion_tests @ sampled_tests @ accounting_tests
  @ granularity_tests @ prefix_tests @ [ prefix_structure_test ]
  @ rewrite_tests @ conservation_tests @ call_tests @ [ call_structure_test ]
