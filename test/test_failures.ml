(* Failure injection: the simulator must catch memory and synchronization
   errors in (possibly transformed) device code, and the harness must
   refuse to report a measurement whose output is wrong. *)

open Gpusim

let t name f = Alcotest.test_case name `Quick f

let expect_rte f =
  match f () with
  | _ -> Alcotest.fail "expected Runtime_error"
  | exception Value.Runtime_error _ -> ()

let run_src ?(grid = (1, 1, 1)) ?(block = (32, 1, 1)) ?(out_n = 8) ~kernel src =
  let dev = Device.create ~cfg:Config.test_config () in
  Device.load_program dev (Minicu.Parser.program src);
  let out = Device.alloc_int_zeros dev out_n in
  Device.launch dev ~kernel ~grid ~block ~args:[ Value.Ptr out ];
  ignore (Device.sync dev);
  Device.read_ints dev out out_n

let suite =
  [
    t "child reading past its parent's buffer is caught" (fun () ->
        expect_rte (fun () ->
            run_src ~kernel:"p"
              {|
__global__ void c(int* o, int base) { o[base + threadIdx.x] = 1; }
__global__ void p(int* o) { c<<<1, 32>>>(o, 1000); }
|}));
    t "corrupt aggregation buffers are caught, not silently wrong" (fun () ->
        (* shrink the aggregation pass's buffers: the transformed parent
           must fault instead of corrupting memory *)
        let prog =
          Minicu.Parser.program Test_helpers.nested_src
        in
        let r =
          Dpopt.Pipeline.run
            ~opts:
              (Dpopt.Pipeline.make
                 ~granularity:(Dpopt.Aggregation.Multi_block 2) ())
            prog
        in
        let broken_auto =
          List.map
            (fun (k, aps) ->
              ( k,
                List.map
                  (fun (ap : Dpopt.Aggregation.auto_param) ->
                    {
                      ap with
                      ap_elems =
                        (fun ~grid_blocks:_ ~block_threads:_ -> 1)
                        (* way too small *);
                    })
                  aps ))
            r.auto_params
        in
        expect_rte (fun () ->
            let dev = Device.create ~cfg:Config.test_config () in
            Device.load_program dev r.prog ~auto_params:broken_auto;
            let rows = Array.init 41 (fun i -> i * (i - 1) / 2) in
            let d_rows = Device.alloc_ints dev rows in
            let d_data = Device.alloc_int_zeros dev rows.(40) in
            Device.launch dev ~kernel:"parent" ~grid:(2, 1, 1)
              ~block:(32, 1, 1)
              ~args:[ Value.Ptr d_rows; Value.Ptr d_data; Value.Int 40 ];
            Device.sync dev));
    t "divergent warp collectives are detected" (fun () ->
        expect_rte (fun () ->
            run_src ~kernel:"k"
              {|
__global__ void k(int* o) {
  if (threadIdx.x < 16) {
    o[0] = warp_sum(1);
  } else {
    __syncthreads();
  }
}
|}));
    t "missing launch argument is rejected at launch time" (fun () ->
        expect_rte (fun () ->
            let dev = Device.create ~cfg:Config.test_config () in
            Device.load_program dev
              (Minicu.Parser.program
                 "__global__ void k(int* o, int n) { o[0] = n; }");
            let out = Device.alloc_int_zeros dev 1 in
            Device.launch dev ~kernel:"k" ~grid:(1, 1, 1) ~block:(1, 1, 1)
              ~args:[ Value.Ptr out ]));
    t "launching an unknown kernel is rejected" (fun () ->
        expect_rte (fun () ->
            let dev = Device.create ~cfg:Config.test_config () in
            Device.load_program dev
              (Minicu.Parser.program "__global__ void k(int* o) { o[0] = 1; }");
            Device.launch dev ~kernel:"nope" ~grid:(1, 1, 1) ~block:(1, 1, 1)
              ~args:[]));
    t "launching before loading a program is rejected" (fun () ->
        expect_rte (fun () ->
            let dev = Device.create ~cfg:Config.test_config () in
            Device.launch dev ~kernel:"k" ~grid:(1, 1, 1) ~block:(1, 1, 1)
              ~args:[]));
    t "device function infinite recursion hits the frame allocator, not \
       the host"
      (fun () ->
        (* guard: a stack-overflow in interpreted code must surface as an
           OCaml exception we can catch, not kill the process. We use a
           bounded-but-deep recursion to stay safe. *)
        let got =
          run_src ~kernel:"k" ~out_n:1
            {|
__device__ int down(int n) { if (n <= 0) { return 0; } return down(n - 1) + 1; }
__global__ void k(int* o) { if (threadIdx.x == 0) { o[0] = down(2000); } }
|}
        in
        Alcotest.(check (array int)) "depth 2000 ok" [| 2000 |] got);
    t "validation failure surfaces through the harness" (fun () ->
        (* a spec whose reference disagrees with the device run *)
        let ds = Workloads.Graph_gen.road_dataset ~rows:6 ~cols:6 () in
        let good = Benchmarks.Bfs.spec ~dataset:ds in
        let bad = { good with reference = (fun () -> 42) } in
        match Harness.Experiment.run bad Harness.Variant.No_cdp with
        | _ -> Alcotest.fail "expected Validation_failure"
        | exception Harness.Experiment.Validation_failure _ -> ());
    t "a non-positive grid or block dimension is rejected at launch"
      (fun () ->
        (* a negative pair multiplies to a positive count: the grid would
           enqueue no block and never complete, the block would run with
           two threads *)
        let message f =
          match f () with
          | _ -> Alcotest.fail "expected Runtime_error"
          | exception Value.Runtime_error m -> m
        in
        let host ~grid ~block () =
          let dev = Device.create ~cfg:Config.test_config () in
          Device.load_program dev
            (Minicu.Parser.program "__global__ void k(int* o) { o[0] = 1; }");
          let out = Device.alloc_int_zeros dev 1 in
          Device.launch dev ~kernel:"k" ~grid ~block ~args:[ Value.Ptr out ];
          Device.sync dev
        in
        Alcotest.(check string) "host grid"
          "launch of \"k\" with empty grid (-1,-2,1)"
          (message (host ~grid:(-1, -2, 1) ~block:(32, 1, 1)));
        Alcotest.(check string) "host block"
          "launch of \"k\" with empty block (-1,-2,1)"
          (message (host ~grid:(1, 1, 1) ~block:(-1, -2, 1)));
        Alcotest.(check string) "in-kernel block"
          "launch of \"c\" with empty block (-1,-2,1)"
          (message (fun () ->
               run_src ~kernel:"p"
                 {|
__global__ void c(int* o) { o[0] = 1; }
__global__ void p(int* o) { c<<<1, dim3(-1, -2, 1)>>>(o); }
|}));
        (* the native runtime checks the shape before resolving the kernel *)
        let st = Native.Nrt.create ~domains:1 () in
        let native =
          match
            Native.Nrt.host_launch st ~kernel:"k" ~grid:(1, 1, 1)
              ~block:(-1, -2, 1) ~args:[]
          with
          | () -> "no error"
          | exception Native.Nrt.Runtime_error m -> m
        in
        Native.Nrt.shutdown st;
        Alcotest.(check string) "native host block"
          "launch of \"k\" with empty block (-1,-2,1)" native);
  ]
