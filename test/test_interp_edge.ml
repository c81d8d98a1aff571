(* Additional interpreter and scheduler edge cases. *)

open Gpusim

let t name f = Alcotest.test_case name `Quick f

let run_kernel ?(grid = (1, 1, 1)) ?(block = (1, 1, 1)) ?(out_n = 8) ~kernel
    src =
  let dev = Device.create ~cfg:Config.test_config () in
  Device.load_program dev (Minicu.Parser.program src);
  let out = Device.alloc_int_zeros dev out_n in
  Device.launch dev ~kernel ~grid ~block ~args:[ Value.Ptr out ];
  ignore (Device.sync dev);
  Device.read_ints dev out out_n

let check_out name ?grid ?block ?out_n ~kernel src expected =
  t name (fun () ->
      Alcotest.(check (array int))
        name expected
        (run_kernel ?grid ?block ?out_n ~kernel src))

let suite =
  [
    check_out "negative modulo follows OCaml (C99 truncation)" ~kernel:"k"
      ~out_n:2
      "__global__ void k(int* o) { int a = 0 - 7; o[0] = a % 3; o[1] = a / 3; }"
      [| -1; -2 |];
    check_out "shift and bit operators" ~kernel:"k" ~out_n:4
      "__global__ void k(int* o) { o[0] = 1 << 10; o[1] = 0 - 8 >> 1; o[2] = \
       12 ^ 10; o[3] = 12 | 3; }"
      [| 1024; -4; 6; 15 |];
    check_out "ternary evaluates a single branch" ~kernel:"k" ~out_n:2
      "__global__ void k(int* o) { int x = 0; int y = true ? 1 : o[100]; \
       o[0] = y; o[1] = x; }"
      [| 1; 0 |];
    check_out "short-circuit && avoids the right side" ~kernel:"k" ~out_n:1
      "__global__ void k(int* o) { int i = 100; if (i < 8 && o[i] == 0) { \
       o[0] = 1; } else { o[0] = 2; } }"
      [| 2 |];
    check_out "short-circuit || avoids the right side" ~kernel:"k" ~out_n:1
      "__global__ void k(int* o) { int i = 100; if (i > 8 || o[i] == 0) { \
       o[0] = 1; } }"
      [| 1 |];
    check_out "for-header step runs after continue" ~kernel:"k" ~out_n:1
      "__global__ void k(int* o) { int s = 0; for (int i = 0; i < 6; i++) { \
       if (i == 2) { continue; } s = s + i; } o[0] = s; }"
      [| 13 |];
    check_out "while with break deep in nesting" ~kernel:"k" ~out_n:1
      "__global__ void k(int* o) { int n = 0; while (true) { if (n > 4) { if \
       (true) { break; } } n = n + 1; } o[0] = n; }"
      [| 5 |];
    check_out "device function sees caller's memory, not frame" ~kernel:"k"
      ~out_n:2
      "__device__ void set(int* p, int v) { p[0] = v; int local = 99; \
       local = local + 1; } __global__ void k(int* o) { int local = 5; \
       set(o + 1, 7); o[0] = local; }"
      [| 5; 7 |];
    check_out "launch from a device function called by the kernel"
      ~kernel:"p" ~out_n:2
      "__global__ void c(int* o) { o[1] = 11; } __device__ void helper(int* \
       o) { c<<<1, 1>>>(o); } __global__ void p(int* o) { helper(o); o[0] = \
       1; }"
      [| 1; 11 |];
    check_out "2-D grid covers all blocks" ~kernel:"k" ~grid:(2, 3, 1)
      ~block:(1, 1, 1) ~out_n:6
      "__global__ void k(int* o) { o[blockIdx.y * 2 + blockIdx.x] = 1 + \
       blockIdx.x + blockIdx.y * 2; }"
      [| 1; 2; 3; 4; 5; 6 |];
    check_out "3-D launch config via dim3 literals" ~kernel:"p" ~out_n:8
      "__global__ void c(int* o) { int i = (blockIdx.z * 2 + blockIdx.y) * 2 \
       + blockIdx.x; o[i] = i + 1; } __global__ void p(int* o) { c<<<dim3(2, \
       2, 2), 1>>>(o); }"
      [| 1; 2; 3; 4; 5; 6; 7; 8 |];
    check_out "atomic float accumulation on a block-shared malloc"
      ~kernel:"k" ~block:(4, 1, 1) ~out_n:1
      "__global__ void k(int* o) { __shared__ float* sp[1]; if (threadIdx.x \
       == 0) { sp[0] = (float*)malloc(1); sp[0][0] = 0.0; } \
       __syncthreads(); float* f = sp[0]; atomicAdd(&f[0], 0.25); \
       __syncthreads(); if (threadIdx.x == 0) { o[0] = (int)(f[0] * 4.0); } }"
      [| 4 |];
    check_out "device malloc is per calling thread (as in CUDA)" ~kernel:"k"
      ~block:(4, 1, 1) ~out_n:4
      "__global__ void k(int* o) { int* mine = (int*)malloc(1); mine[0] = \
       threadIdx.x * 10; o[threadIdx.x] = mine[0]; }"
      [| 0; 10; 20; 30 |];
    t "shared memory is freed at block end" (fun () ->
        let dev = Device.create ~cfg:Config.test_config () in
        Device.load_program dev
          (Minicu.Parser.program
             "__global__ void k(int* o) { __shared__ int b[64]; \
              b[threadIdx.x] = 1; o[0] = b[threadIdx.x]; }");
        let out = Device.alloc_int_zeros dev 1 in
        let mem = Device.memory dev in
        let before = Memory.allocated_elems mem in
        Device.launch dev ~kernel:"k" ~grid:(4, 1, 1) ~block:(32, 1, 1)
          ~args:[ Value.Ptr out ];
        ignore (Device.sync dev);
        (* allocation high-water grew by the shared buffers, but they are
           freed: a second round must not fault and must reuse semantics *)
        Alcotest.(check bool) "allocated counted" true
          (Memory.allocated_elems mem >= before + (4 * 64));
        Device.launch dev ~kernel:"k" ~grid:(1, 1, 1) ~block:(32, 1, 1)
          ~args:[ Value.Ptr out ];
        ignore (Device.sync dev));
    t "grids from different host launches interleave deterministically"
      (fun () ->
        let run () =
          let dev = Device.create ~cfg:Config.test_config () in
          Device.load_program dev
            (Minicu.Parser.program
               "__global__ void k(int* o, int tag) { \
                atomicAdd(&o[0], tag); o[1 + blockIdx.x % 4] = tag; }");
          let out = Device.alloc_int_zeros dev 5 in
          Device.launch dev ~kernel:"k" ~grid:(4, 1, 1) ~block:(8, 1, 1)
            ~args:[ Value.Ptr out; Value.Int 1 ];
          Device.launch dev ~kernel:"k" ~grid:(4, 1, 1) ~block:(8, 1, 1)
            ~args:[ Value.Ptr out; Value.Int 2 ];
          ignore (Device.sync dev);
          Device.read_ints dev out 5
        in
        Alcotest.(check (array int)) "two identical runs" (run ()) (run ()));
    t "makespan grows with serial dependency chains" (fun () ->
        let src =
          "__global__ void k(int* o, int n) { int s = 0; for (int i = 0; i < \
           n; i++) { s = s + o[i % 4]; } o[blockIdx.x % 4] = s; }"
        in
        let run n =
          let dev = Device.create ~cfg:Config.test_config () in
          Device.load_program dev (Minicu.Parser.program src);
          let out = Device.alloc_int_zeros dev 4 in
          Device.launch dev ~kernel:"k" ~grid:(1, 1, 1) ~block:(32, 1, 1)
            ~args:[ Value.Ptr out; Value.Int n ];
          Device.sync dev
        in
        let t100 = run 100 and t1000 = run 1000 in
        Alcotest.(check bool) "10x work, >5x time" true (t1000 > t100 *. 5.0));
    t "warp divergence makes the straggler the warp's cost" (fun () ->
        (* one thread does 100x the work of its warp-mates: warp cost must
           track the straggler, not the average *)
        let src =
          "__global__ void k(int* o, int heavy) { int n = threadIdx.x == 0 ? \
           heavy : 1; int s = 0; for (int i = 0; i < n; i++) { s = s + i; } \
           o[threadIdx.x] = s; }"
        in
        let run heavy =
          let dev = Device.create ~cfg:Config.test_config () in
          Device.load_program dev (Minicu.Parser.program src);
          let out = Device.alloc_int_zeros dev 32 in
          Device.launch dev ~kernel:"k" ~grid:(1, 1, 1) ~block:(32, 1, 1)
            ~args:[ Value.Ptr out; Value.Int heavy ];
          Device.sync dev
        in
        let balanced = run 1 and skewed = run 1000 in
        Alcotest.(check bool) "straggler dominates" true
          (skewed > balanced *. 10.0));
    t "empty statement lists and nested anonymous blocks" (fun () ->
        let got =
          run_kernel ~kernel:"k" ~out_n:1
            "__global__ void k(int* o) { { } { { o[0] = 3; } } }"
        in
        Alcotest.(check (array int)) "ok" [| 3 |] got);
    t "device malloc: an unwritten element loads as Int 0, a stored float \
       as itself" (fun () ->
        let dev = Device.create ~cfg:Config.test_config () in
        Device.load_program dev
          (Minicu.Parser.program
             "__global__ void k(int* o) { float* f = (float*)malloc(2); f[1] \
              = 2.5; o[0] = f[0] + 1; o[1] = f[1] + 1; }");
        let out = Device.alloc_int_zeros dev 2 in
        Device.launch dev ~kernel:"k" ~grid:(1, 1, 1) ~block:(1, 1, 1)
          ~args:[ Value.Ptr out ];
        ignore (Device.sync dev);
        Alcotest.(check bool) "kinds" true
          (Device.dump_memory dev ~first:1 = [ Value.[| Int 1; Float 3.5 |] ]));
  ]
