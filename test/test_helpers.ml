(* Shared helpers for the transformation tests: a standard nested-parallel
   workload whose output must be preserved by every optimization variant. *)

open Gpusim

(* The canonical test program: each parent thread increments a run of a data
   array through a child grid, with heavy-tailed run lengths. *)
let nested_src =
  {|
__global__ void child(int* data, int base, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    data[base + i] = data[base + i] * 2 + 1;
  }
}

__global__ void parent(int* rows, int* data, int n) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < n) {
    int start = rows[v];
    int deg = rows[v + 1] - rows[v];
    if (deg > 0) {
      child<<<(deg + 31) / 32, 32>>>(data, start, deg);
    }
  }
}
|}

(* Run [prog] (typically a transformed nested_src) on the standard workload
   and return (data after run, metrics). [n] parents; parent [v] owns a run
   of length [v * (v - 1) / 2 .. ] — triangular sizes, so small and large
   child grids both occur. *)
let run_nested ?(cfg = Config.test_config) ?(n = 40)
    (r : Dpopt.Pipeline.result) =
  let dev = Device.create ~cfg () in
  Device.load_program dev r.prog ~auto_params:r.auto_params;
  let rows = Array.init (n + 1) (fun i -> i * (i - 1) / 2) in
  let total = rows.(n) in
  let data = Array.init total (fun i -> i) in
  let d_rows = Device.alloc_ints dev rows in
  let d_data = Device.alloc_ints dev data in
  Device.launch dev ~kernel:"parent"
    ~grid:((n + 31) / 32, 1, 1)
    ~block:(32, 1, 1)
    ~args:[ Value.Ptr d_rows; Value.Ptr d_data; Value.Int n ];
  ignore (Device.sync dev);
  (Device.read_ints dev d_data total, Device.metrics dev)

let expected_nested ?(n = 40) () =
  let rows = Array.init (n + 1) (fun i -> i * (i - 1) / 2) in
  Array.init rows.(n) (fun i -> (i * 2) + 1)

(* Transform nested_src with [opts], run it, and check the output. Returns
   metrics for further assertions. *)
let check_nested_variant ?cfg ?n (opts : Dpopt.Pipeline.options) =
  let r = Dpopt.Pipeline.run ~opts (Minicu.Parser.program nested_src) in
  let got, metrics = run_nested ?cfg ?n r in
  Alcotest.(check (array int)) "output preserved" (expected_nested ?n ()) got;
  (r, metrics)

(* Find a function in a transformed program. *)
let fn (r : Dpopt.Pipeline.result) name = Minicu.Ast.find_func_exn r.prog name

let has_fn (r : Dpopt.Pipeline.result) name =
  Minicu.Ast.find_func r.prog name <> None
