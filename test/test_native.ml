(* The native-backend suite: transpiler goldens, emit-time rejections,
   and the cross-backend differential layer — emitted parallel-OCaml
   programs must produce memory dumps byte-identical to the simulator on
   order-independent programs.

   Tests that compile and run emitted code shell out to a nested dune
   build (Native.Build); they are tagged `Slow only where they rerun an
   executable many times. *)

module E = Native.Emit
module H = Native.Hostspec
module B = Native.Build

let t name f = Alcotest.test_case name `Quick f

let cfg = Gpusim.Config.test_config

let parse src = Minicu.Parser.program ~file:"<test>" src

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_typed src =
  let prog = parse src in
  Minicu.Typecheck.check prog;
  prog

(* Run [host] natively (one baseline variant) and on the simulator; the
   two dumps must be byte-identical. Returns the dump. *)
let sim_check ?(label = "base") prog host =
  let source =
    E.unit_source
      ~variants:[ { E.vu_label = label; vu_prog = prog; vu_autos = [] } ]
      ~host
  in
  let out = B.compile_and_run ~source () in
  let native =
    match B.sections out with
    | [ (l, body) ] when l = label -> body
    | secs ->
        Alcotest.failf "expected one %S section, got %d: %s" label
          (List.length secs) out
  in
  let sim = H.render_dump (H.run_sim ~cfg prog ~auto_params:[] host) in
  Alcotest.(check string) "native = sim" sim native;
  native

(* A feature gauntlet: device calls with break/continue-in-for, shared
   memory + barrier reduction, float math and casts, atomics, dim3
   construction and member writes, while loops, and device-side child
   launches. Every write is order-independent, so the parallel native
   run must match the deterministic simulator bit for bit. *)
let gauntlet_src =
  {|
__device__ int scale(int v, int k) {
  int acc = 0;
  for (int j = 0; j < k; j = j + 1) {
    if (j == 2) { continue; }
    if (j > 5) { break; }
    acc = acc + v;
  }
  return acc;
}

__global__ void child(int* out, int base, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    atomicAdd(&out[base + i], i + 1);
  }
}

__global__ void reduce(int* in, int* out, int n) {
  __shared__ int sh[64];
  int tid = threadIdx.x;
  int i = blockIdx.x * blockDim.x + tid;
  sh[tid] = i < n ? in[i] : 0;
  __syncthreads();
  for (int s = 32; s > 0; s = s / 2) {
    if (tid < s) { sh[tid] = sh[tid] + sh[tid + s]; }
    __syncthreads();
  }
  if (tid == 0) { out[blockIdx.x] = sh[0]; }
}

__global__ void fmix(float* o, int* iv, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    float x = (float)iv[i] / 4.0;
    float y = sqrt(fabs(x - 2.5)) + pow(2.0, 3.0);
    o[i] = min(x, y) + max(y - x, 0.125) * 1.5;
    iv[i] = (int)(o[i] + 0.5) + scale(2, 7);
  }
}

__global__ void spawn(int* rows, int* out, int n) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < n) {
    int deg = rows[v + 1] - rows[v];
    if (deg > 0) {
      child<<<(deg + 3) / 4, 4>>>(out, rows[v], deg);
    }
  }
}

__global__ void dims(int* o) {
  if (threadIdx.x == 0 && blockIdx.x == 0) {
    dim3 g = dim3(2, 1, 1);
    dim3 b;
    b.x = 4;
    g.y = b.x / 4;
    child<<<g, b>>>(o, 0, 6);
    int w = 0;
    while (w < 3) {
      o[32 + w] = g.x * 10 + b.x;
      w = w + 1;
    }
  }
}
|}

let gauntlet_host =
  {
    H.ops =
      [
        H.Alloc_ints (Array.init 128 (fun i -> (i * 7 mod 23) - 5));
        H.Alloc_int_zeros 2;
        H.Alloc_float_zeros 8;
        H.Alloc_ints [| 3; 7; 10; -2; 5; 0; 9; 1 |];
        H.Alloc_ints [| 0; 2; 5; 5; 9 |];
        H.Alloc_int_zeros 16;
        H.Alloc_int_zeros 40;
        H.Launch
          {
            kernel = "reduce";
            grid = (2, 1, 1);
            block = (64, 1, 1);
            args = [ H.A_buf 0; H.A_buf 1; H.A_int 100 ];
          };
        H.Launch
          {
            kernel = "fmix";
            grid = (2, 1, 1);
            block = (4, 1, 1);
            args = [ H.A_buf 2; H.A_buf 3; H.A_int 7 ];
          };
        H.Launch
          {
            kernel = "spawn";
            grid = (1, 1, 1);
            block = (4, 1, 1);
            args = [ H.A_buf 4; H.A_buf 5; H.A_int 4 ];
          };
        H.Launch
          {
            kernel = "dims";
            grid = (1, 1, 1);
            block = (1, 1, 1);
            args = [ H.A_buf 6 ];
          };
        H.Sync;
      ];
  }

let dump_line n dump =
  match
    List.find_opt
      (fun l ->
        String.length l > 4 && String.sub l 0 4 = "buf "
        && l.[4] = Char.chr (Char.code '0' + n))
      (String.split_on_char '\n' dump)
  with
  | Some l -> l
  | None -> Alcotest.failf "dump has no buf %d line:\n%s" n dump

let test_gauntlet () =
  let prog = check_typed gauntlet_src in
  let dump = sim_check prog gauntlet_host in
  (* Spot-check hand-computed cells so an all-backends-wrong emitter
     cannot pass by agreeing with itself. spawn's children add i+1 over
     each parent's row [rows[v], rows[v]+deg): rows = 0,2,5,5,9. *)
  Alcotest.(check string)
    "spawn out" "buf 5: i1 i2 i1 i2 i3 i1 i2 i3 i4 i0 i0 i0 i0 i0 i0 i0"
    (dump_line 5 dump);
  (* dims: g = (2,1,1) with g.y := b.x/4 = 1, so the while loop writes
     g.x*10 + b.x = 24 at cells 32..34; its child covers cells 0..5. *)
  let b6 = dump_line 6 dump in
  let cells = String.split_on_char ' ' b6 in
  Alcotest.(check (list string))
    "dims cells 0..6" [ "i1"; "i2"; "i3"; "i4"; "i5"; "i6"; "i0" ]
    (List.filteri (fun i _ -> i >= 2 && i < 9) cells);
  Alcotest.(check (list string))
    "dims cells 32..35" [ "i24"; "i24"; "i24"; "i0" ]
    (List.filteri (fun i _ -> i >= 34 && i < 38) cells)

(* ------------------------------------------------------------------ *)
(* Benchmark matrix: every pass combination, native against the
   simulator, plus the pure-OCaml reference                            *)
(* ------------------------------------------------------------------ *)

(* Decode dump cells back into values for the reference leg. *)
let cells_of_buf n dump =
  let line = dump_line n dump in
  match String.split_on_char ' ' line with
  | _buf :: _n :: cells -> cells
  | _ -> Alcotest.failf "malformed dump line: %s" line

let ints_of_buf n dump =
  List.map
    (fun c ->
      if String.length c < 2 || c.[0] <> 'i' then
        Alcotest.failf "expected int cell, got %S" c
      else int_of_string (String.sub c 1 (String.length c - 1)))
    (cells_of_buf n dump)

let floats_of_buf n dump =
  List.map
    (fun c ->
      if String.length c < 2 || c.[0] <> 'f' then
        Alcotest.failf "expected float cell, got %S" c
      else
        Int64.float_of_bits
          (Int64.of_string ("0x" ^ String.sub c 1 (String.length c - 1))))
    (cells_of_buf n dump)

(* The 2^3 pass combinations at the oracle's default knobs, block
   aggregation (the granularities the native backend rejects — warp,
   multi-block, grid — are covered by the negative tests). *)
let combos =
  Dpopt.Pipeline.enumerate ~threshold:9 ~cfactor:3
    ~granularity:Dpopt.Aggregation.Block ()

(* Run a benchmark's static host driver across all pass combinations:
   one emitted executable bundling every variant, compared per-variant
   against the simulator, plus [fingerprint] recomputing the
   benchmark's pure-OCaml reference from the native dump alone. *)
let bench_matrix (spec : Benchmarks.Bench_common.spec)
    ~(fingerprint : string -> int) () =
  let host =
    match spec.native_host with
    | Some h -> h
    | None -> Alcotest.failf "%s has no native host spec" spec.name
  in
  let prog = Minicu.Parser.program spec.cdp_src in
  let runs =
    List.map
      (fun (label, opts) -> (label, Dpopt.Pipeline.run ~opts prog))
      combos
  in
  Alcotest.(check int) "matrix is the full 2^3" 8 (List.length runs);
  let variants =
    List.map
      (fun (label, (r : Dpopt.Pipeline.result)) ->
        { E.vu_label = label; vu_prog = r.prog; vu_autos = r.auto_params })
      runs
  in
  let out = B.compile_and_run ~source:(E.unit_source ~variants ~host) () in
  let secs = B.sections out in
  List.iter
    (fun (label, (r : Dpopt.Pipeline.result)) ->
      let native =
        match List.assoc_opt label secs with
        | Some d -> d
        | None -> Alcotest.failf "no native section for %s" label
      in
      let sim =
        H.render_dump (H.run_sim ~cfg r.prog ~auto_params:r.auto_params host)
      in
      Alcotest.(check string)
        (Fmt.str "%s/%s %s: native = sim" spec.name spec.dataset label)
        sim native;
      Alcotest.(check int)
        (Fmt.str "%s/%s %s: native dump = OCaml reference" spec.name
           spec.dataset label)
        (spec.reference ()) (fingerprint native))
    runs

(* Reference fingerprints recomputed from the dump, mirroring each
   benchmark's [run] read-back. *)
let bt_fingerprint dump =
  let cs = List.hd (ints_of_buf 3 dump) in
  let np = Array.of_list (ints_of_buf 2 dump) in
  cs + Benchmarks.Bench_common.array_hash np

let sp_fingerprint dump =
  (* After 3 rounds of double-buffer swaps the final surveys sit in the
     second eta buffer (buf 5). *)
  Benchmarks.Bench_common.array_hash
    (Array.of_list
       (List.map Benchmarks.Bench_common.quantize (floats_of_buf 5 dump)))

let tc_fingerprint dump = List.hd (ints_of_buf 5 dump)

let mstv_fingerprint dump =
  List.hd (ints_of_buf 5 dump)
  + Benchmarks.Bench_common.array_hash (Array.of_list (ints_of_buf 4 dump))

let find_spec name dataset =
  match Benchmarks.Registry.find ~name ~dataset () with
  | Some s -> s
  | None -> Alcotest.failf "no registry entry %s/%s" name dataset

(* A static benchmark has one host driver: a CDP run of [spec.run] leaves
   in the driver buffers exactly what [Hostspec.run_sim] of its host spec
   leaves, so the native matrices check the driver the simulator runs. *)
let run_is_host_spec (spec : Benchmarks.Bench_common.spec) host () =
  let r =
    Dpopt.Pipeline.run ~opts:Dpopt.Pipeline.none
      (Minicu.Parser.program spec.cdp_src)
  in
  let dev = Gpusim.Device.create ~cfg () in
  Gpusim.Device.load_program dev r.prog ~auto_params:r.auto_params;
  ignore (spec.run dev);
  Alcotest.(check string)
    (Fmt.str "%s/%s: spec.run memory = Hostspec.run_sim memory" spec.name
       spec.dataset)
    (H.render_dump (H.run_sim ~cfg r.prog ~auto_params:r.auto_params host))
    (H.render_dump (Gpusim.Device.dump_memory dev ~first:(H.user_buffers host)))

let run_is_host_spec_tests =
  List.filter_map
    (fun (spec : Benchmarks.Bench_common.spec) ->
      Option.map
        (fun host ->
          t
            (Fmt.str "driver %s/%s: spec.run leaves the memory run_sim leaves"
               spec.name spec.dataset)
            (run_is_host_spec spec host))
        spec.native_host)
    (Benchmarks.Registry.all ~size:Benchmarks.Registry.Small ())

(* ------------------------------------------------------------------ *)
(* Golden transpile corpus                                             *)
(* ------------------------------------------------------------------ *)

(* The corpus programs the backend supports (barriers uses
   __threadfence, collectives uses warp intrinsics — those are the
   negative fixtures below). Golden [.native.ml] files pin the emitted
   text; regenerate with CORPUS_PROMOTE=1 after an intentional emitter
   change, as with the other corpus goldens. *)
let golden_fixtures =
  [ "atomics"; "device_calls"; "dim3s"; "floats"; "loops"; "nested" ]

let transpile_golden base () =
  let src =
    Test_corpus.read_file
      (Filename.concat Test_corpus.corpus_dir (base ^ ".minicu"))
  in
  let prog = Minicu.Parser.program ~file:(base ^ ".minicu") src in
  Test_corpus.golden_check ~what:"native transpile"
    ~fixture:(base ^ ".minicu")
    ~golden_name:(base ^ ".native.ml")
    (E.program prog)

(* Emitted golden text must actually be compilable OCaml: build one
   fixture's module against the runtime (no driver, no execution). *)
let test_goldens_compile () =
  let src =
    Test_corpus.read_file (Filename.concat Test_corpus.corpus_dir "nested.minicu")
  in
  let prog = Minicu.Parser.program ~file:"nested.minicu" src in
  let source = E.program prog ^ "\nlet () = ignore kernels\n" in
  ignore (B.compile_and_run ~source ())

(* ------------------------------------------------------------------ *)
(* Negative tests: emit-time rejections                                *)
(* ------------------------------------------------------------------ *)

let reject_corpus base ~needle () =
  let src =
    Test_corpus.read_file
      (Filename.concat Test_corpus.corpus_dir (base ^ ".minicu"))
  in
  let prog = Minicu.Parser.program ~file:(base ^ ".minicu") src in
  match E.supported prog with
  | None -> Alcotest.failf "%s should be rejected by the native backend" base
  | Some (loc, msg) ->
      if loc.Minicu.Loc.line = 0 then
        Alcotest.failf "%s: rejection lost its source location" base;
      if not (contains ~needle msg) then
        Alcotest.failf "%s: rejection %S does not mention %S" base msg needle

let test_reject_host_followup () =
  let spec = find_spec "TC" "KRON" in
  let prog = Minicu.Parser.program spec.cdp_src in
  let r =
    Dpopt.Pipeline.run
      ~opts:
        (Dpopt.Pipeline.make ~granularity:Dpopt.Aggregation.Grid ())
      prog
  in
  match E.supported r.prog with
  | None ->
      Alcotest.fail
        "grid-granularity aggregation (host followup) should be rejected"
  | Some (_, msg) ->
      if not (contains ~needle:"host followup" msg) then
        Alcotest.failf "unexpected rejection: %s" msg

(* Satellite: the true-parallelism oracle smoke, documenting why
   [dpfuzz --backend native] exists. [Oracle.racy_global_injection]
   prepends a cross-block unsynchronized global RMW loop to the kernel;
   the simulator's deterministic scheduler dumps identical memory on
   every run, while real domain parallelism loses updates
   nondeterministically — repeated native runs diverge from each other,
   or at the very least from the serialized simulator count. (The
   intra-block [Oracle.racy_injection] stays deterministic natively:
   block fibers run in thread-id order.) *)
let test_racy_divergence () =
  let prog = parse "__global__ void parent(int *acc) { acc[0] = 1; }" in
  let v = Difftest.Oracle.racy_global_injection ~iters:2000 () in
  let compiled = v.Difftest.Oracle.v_compile prog in
  let host =
    {
      H.ops =
        [
          H.Alloc_int_zeros 4;
          H.Launch
            {
              kernel = "parent";
              grid = (4, 1, 1);
              block = (8, 1, 1);
              args = [ H.A_buf 0 ];
            };
          H.Sync;
        ];
    }
  in
  let prog = compiled.Difftest.Oracle.c_prog in
  let sim () =
    H.render_dump (H.run_sim ~cfg prog ~auto_params:[] host)
  in
  let s1 = sim () in
  Alcotest.(check string) "simulator is deterministic across runs" s1 (sim ());
  let source =
    E.unit_source
      ~variants:[ { E.vu_label = "racy"; vu_prog = prog; vu_autos = [] } ]
      ~host
  in
  let dumps =
    B.compile_and_run_many ~runs:8 ~source ()
    |> List.map (fun out ->
           match List.assoc_opt "racy" (B.sections out) with
           | Some d -> d
           | None -> Alcotest.failf "no racy section in: %s" out)
  in
  (* Lost updates are not guaranteed in any single run, but 8 runs of 4
     contended blocks x 8 threads x 2000 non-atomic RMWs all landing
     exactly on the serialized simulator count would mean no real
     parallelism at all. *)
  if
    List.length (List.sort_uniq compare dumps) < 2
    && List.for_all (String.equal s1) dumps
  then
    Alcotest.fail
      "native runs never diverged from the deterministic simulator count"

let suite =
  [
    t "gauntlet: native = sim (both backends agree)" test_gauntlet;
    t "matrix BT/T0032-C16: 8 combos, native = sim = reference"
      (bench_matrix (find_spec "BT" "T0032-C16") ~fingerprint:bt_fingerprint);
    t "matrix SP/RAND-3: 8 combos, native = sim = reference"
      (bench_matrix (find_spec "SP" "RAND-3") ~fingerprint:sp_fingerprint);
    t "matrix TC/KRON: 8 combos, native = sim = reference"
      (bench_matrix (find_spec "TC" "KRON") ~fingerprint:tc_fingerprint);
    t "matrix MSTV/KRON: 8 combos, native = sim = reference"
      (bench_matrix (find_spec "MSTV" "KRON") ~fingerprint:mstv_fingerprint);
    t "goldens: one transpiled module compiles against the runtime"
      test_goldens_compile;
    t "reject: __threadfence (no cross-block ordering)"
      (reject_corpus "barriers" ~needle:"__threadfence");
    t "reject: warp collectives (no SIMT lockstep)"
      (reject_corpus "collectives" ~needle:"warp collective");
    t "reject: grid aggregation's host followup" test_reject_host_followup;
    t "racy injection: native diverges, simulator does not"
      test_racy_divergence;
  ]
  @ List.map
      (fun base ->
        t (base ^ ": transpile matches .native.ml golden")
          (transpile_golden base))
      golden_fixtures
  @ run_is_host_spec_tests
