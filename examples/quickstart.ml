(* Quickstart: transform a nested-parallel kernel with all three
   optimizations, inspect the generated source, and watch the speedup in the
   GPU simulator.

     dune exec examples/quickstart.exe *)

let source =
  {|
__global__ void scale_child(int* data, int base, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    data[base + i] = data[base + i] * 3;
  }
}

__global__ void scale_parent(int* offsets, int* data, int n_rows) {
  int row = blockIdx.x * blockDim.x + threadIdx.x;
  if (row < n_rows) {
    int start = offsets[row];
    int len = offsets[row + 1] - start;
    if (len > 0) {
      scale_child<<<(len + 63) / 64, 64>>>(data, start, len);
    }
  }
}
|}

(* Upload a ragged workload (row v has v elements) and run it. *)
let run_on_device (r : Dpopt.Pipeline.result) =
  let open Gpusim in
  let dev = Device.create () in
  Device.load_program dev r.prog ~auto_params:r.auto_params;
  let n_rows = 256 in
  let offsets = Array.init (n_rows + 1) (fun v -> v * (v - 1) / 2) in
  let total = offsets.(n_rows) in
  let d_off = Device.alloc_ints dev offsets in
  let d_data = Device.alloc_ints dev (Array.init total (fun i -> i)) in
  Device.launch dev ~kernel:"scale_parent"
    ~grid:((n_rows + 127) / 128, 1, 1)
    ~block:(128, 1, 1)
    ~args:[ Ptr d_off; Ptr d_data; Int n_rows ];
  let time = Device.sync dev in
  let sample = Device.read_ints dev d_data 5 in
  (time, sample, Device.metrics dev)

let () =
  (* 1. Plain CDP: parse and run unmodified. *)
  let cdp = Dpopt.Pipeline.run (Minicu.Parser.program source) in
  let t_cdp, sample, m_cdp = run_on_device cdp in
  Fmt.pr "CDP (untransformed): %8.0f cycles, %d device launches@." t_cdp
    m_cdp.device_launches;
  Fmt.pr "  data sample after run: %a@." Fmt.(Dump.array int) sample;

  (* 2. The full pipeline: thresholding at 64, coarsening by 8, multi-block
     aggregation over groups of 8 blocks. *)
  let opts =
    Dpopt.Pipeline.make ~threshold:64 ~cfactor:8
      ~granularity:(Dpopt.Aggregation.Multi_block 8) ()
  in
  let optimized = Dpopt.Pipeline.run ~opts (Minicu.Parser.program source) in
  Fmt.pr "@.--- transformed source (%s) ---@.%s@."
    (Dpopt.Pipeline.label opts)
    (Minicu.Pretty.program optimized.prog);

  (* 3. Run the optimized version: same results, fewer launches, faster. *)
  let t_opt, sample_opt, m_opt = run_on_device optimized in
  assert (sample = sample_opt);
  Fmt.pr "%s: %8.0f cycles, %d device launches, %d serialized launches@."
    (Dpopt.Pipeline.label opts)
    t_opt m_opt.device_launches m_opt.serialized_launches;
  Fmt.pr "speedup over CDP: %.1fx (outputs identical)@." (t_cdp /. t_opt)
