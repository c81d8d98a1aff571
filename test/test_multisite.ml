(* Multiple launch sites per parent kernel: two different children, and two
   sites of the same child, under every optimization combination. Each site
   gets its own buffers/epilogue; outputs must match plain CDP exactly. *)

open Gpusim

let t name f = Alcotest.test_case name `Quick f

(* parent launches two different children, each covering half the data *)
let two_children_src =
  {|
__global__ void double_child(int* d, int base, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { d[base + i] = d[base + i] * 2; }
}

__global__ void incr_child(int* d, int base, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { d[base + i] = d[base + i] + 100; }
}

__global__ void parent(int* rows, int* d, int nv) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < nv) {
    int start = rows[v];
    int deg = rows[v + 1] - start;
    if (deg > 0) {
      double_child<<<(deg + 15) / 16, 16>>>(d, start, deg);
      incr_child<<<(deg + 31) / 32, 32>>>(d, start, deg);
    }
  }
}
|}

(* two launch sites of the SAME child with different configurations *)
let same_child_twice_src =
  {|
__global__ void child(int* d, int base, int n, int delta) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { atomicAdd(&d[base + i], delta); }
}

__global__ void parent(int* rows, int* d, int nv) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < nv) {
    int start = rows[v];
    int deg = rows[v + 1] - start;
    if (deg > 2) {
      child<<<(deg + 15) / 16, 16>>>(d, start, deg, 7);
    }
    if (deg > 0) {
      child<<<(deg + 31) / 32, 32>>>(d, start, deg, 1000);
    }
  }
}
|}

let run src opts =
  let r = Dpopt.Pipeline.run ~opts (Minicu.Parser.program src) in
  let dev = Device.create ~cfg:Config.test_config () in
  Device.load_program dev r.prog ~auto_params:r.auto_params;
  let nv = 30 in
  let rows = Array.init (nv + 1) (fun i -> i * (i - 1) / 2) in
  let total = rows.(nv) in
  let d_rows = Device.alloc_ints dev rows in
  let d = Device.alloc_ints dev (Array.init total (fun i -> i)) in
  Device.launch dev ~kernel:"parent"
    ~grid:((nv + 31) / 32, 1, 1)
    ~block:(32, 1, 1)
    ~args:[ Value.Ptr d_rows; Value.Ptr d; Value.Int nv ];
  ignore (Device.sync dev);
  (Device.read_ints dev d total, Device.metrics dev)

let opt_sets =
  [
    ("T", Dpopt.Pipeline.make ~threshold:10 ());
    ("C", Dpopt.Pipeline.make ~cfactor:2 ());
    ("A-warp", Dpopt.Pipeline.make ~granularity:Dpopt.Aggregation.Warp ());
    ("A-block", Dpopt.Pipeline.make ~granularity:Dpopt.Aggregation.Block ());
    ( "A-mb2",
      Dpopt.Pipeline.make ~granularity:(Dpopt.Aggregation.Multi_block 2) () );
    ("A-grid", Dpopt.Pipeline.make ~granularity:Dpopt.Aggregation.Grid ());
    ( "TCA",
      Dpopt.Pipeline.make ~threshold:10 ~cfactor:2
        ~granularity:(Dpopt.Aggregation.Multi_block 2) () );
  ]

let check_src name src =
  t name (fun () ->
      let reference, _ = run src Dpopt.Pipeline.none in
      List.iter
        (fun (label, opts) ->
          let got, _ = run src opts in
          Alcotest.(check (array int)) (name ^ " under " ^ label) reference got)
        opt_sets)

let suite =
  [
    check_src "two different children per parent" two_children_src;
    check_src "same child launched at two sites" same_child_twice_src;
    t "each aggregated site gets its own buffers" (fun () ->
        let r =
          Dpopt.Pipeline.run
            ~opts:(Dpopt.Pipeline.make ~granularity:Dpopt.Aggregation.Block ())
            (Minicu.Parser.program two_children_src)
        in
        match r.auto_params with
        | [ ("parent", aps) ] ->
            (* two sites x (3 arg arrays + scan + bdim) = 10 buffers *)
            Alcotest.(check int) "buffer count" 10 (List.length aps);
            let names = List.map (fun (a : Dpopt.Aggregation.auto_param) -> a.ap_name) aps in
            Alcotest.(check bool) "site 0 and site 1 prefixes" true
              (List.exists (fun n -> String.length n > 5 && String.sub n 0 5 = "_agg0") names
              && List.exists (fun n -> String.length n > 5 && String.sub n 0 5 = "_agg1") names)
        | _ -> Alcotest.fail "expected auto params for parent");
    t "aggregating two sites creates one agg kernel per child" (fun () ->
        let r =
          Dpopt.Pipeline.run
            ~opts:(Dpopt.Pipeline.make ~granularity:Dpopt.Aggregation.Block ())
            (Minicu.Parser.program same_child_twice_src)
        in
        let aggs =
          List.filter
            (fun (f : Minicu.Ast.func) ->
              String.length f.f_name >= 9
              && String.sub f.f_name 0 9 = "child_agg")
            r.prog
        in
        Alcotest.(check int) "one shared agg kernel" 1 (List.length aggs));
    t "launch counts drop per site under aggregation" (fun () ->
        let _, plain = run two_children_src Dpopt.Pipeline.none in
        let _, agg =
          run two_children_src
            (Dpopt.Pipeline.make ~granularity:Dpopt.Aggregation.Grid ())
        in
        Alcotest.(check bool) "far fewer launches" true
          (agg.grids_launched * 4 < plain.grids_launched));
  ]
