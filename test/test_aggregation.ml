(* Aggregation transformation tests (paper Section V): all four
   granularities, the aggregation threshold, buffer specs, eligibility. *)

open Minicu
open Minicu.Ast
open Dpopt

let t name f = Alcotest.test_case name `Quick f

let transform ?(granularity = Aggregation.Block) ?agg_threshold src =
  Aggregation.transform ~opts:{ granularity; agg_threshold }
    (Parser.program src)

let opts g = Pipeline.make ~granularity:g ()

let suite =
  [
    t "creates the aggregated child kernel" (fun () ->
        let r = transform Test_helpers.nested_src in
        let agg = Ast.find_func_exn r.prog "child_agg" in
        Alcotest.(check bool) "global" true (agg.f_kind = Global);
        (* per-arg array params + scan + bdim + count *)
        Alcotest.(check int) "arity" 6 (List.length agg.f_params));
    t "disaggregation logic is tagged for the Fig. 10 breakdown" (fun () ->
        let r = transform Test_helpers.nested_src in
        let agg = Ast.find_func_exn r.prog "child_agg" in
        let tags = List.map (fun s -> s.stag) agg.f_body in
        Alcotest.(check bool) "all disagg-tagged" true
          (List.for_all (fun tg -> tg = Tag_disagg) tags));
    t "parent gains buffer parameters and an auto-params spec" (fun () ->
        let r = transform Test_helpers.nested_src in
        let parent = Ast.find_func_exn r.prog "parent" in
        Alcotest.(check bool) "params appended" true
          (List.length parent.f_params > 3);
        match r.auto_params with
        | [ ("parent", aps) ] ->
            Alcotest.(check int) "one buffer per appended param"
              (List.length parent.f_params - 3)
              (List.length aps)
        | _ -> Alcotest.fail "expected auto params for parent");
    t "block granularity uses shared-memory counters and a barrier" (fun () ->
        let r = transform ~granularity:Aggregation.Block Test_helpers.nested_src in
        let parent = Ast.find_func_exn r.prog "parent" in
        Alcotest.(check bool) "shared decl" true
          (Ast_util.contains_shared parent.f_body);
        Alcotest.(check bool) "barrier" true
          (Ast_util.contains_sync parent.f_body));
    t "multi-block granularity publishes with a threadfence" (fun () ->
        let r =
          transform ~granularity:(Aggregation.Multi_block 4)
            Test_helpers.nested_src
        in
        let parent = Ast.find_func_exn r.prog "parent" in
        let has_fence =
          Ast_util.fold_stmts
            (fun acc s -> acc || s.sdesc = Threadfence)
            false parent.f_body
        in
        Alcotest.(check bool) "fence before group signal" true has_fence);
    t "grid granularity launches from a host followup" (fun () ->
        let r = transform ~granularity:Aggregation.Grid Test_helpers.nested_src in
        let parent = Ast.find_func_exn r.prog "parent" in
        Alcotest.(check bool) "no launch left in parent" false
          (Ast_util.contains_launch parent.f_body);
        match parent.f_host_followup with
        | Some ss ->
            Alcotest.(check bool) "followup launches child_agg" true
              (List.exists
                 (fun l -> l.l_kernel = "child_agg")
                 (Ast_util.launches_of ss))
        | None -> Alcotest.fail "expected a host followup");
    t "warp granularity uses warp collectives" (fun () ->
        let r = transform ~granularity:Aggregation.Warp Test_helpers.nested_src in
        let parent = Ast.find_func_exn r.prog "parent" in
        let uses_collective =
          Ast_util.fold_exprs_in_stmts
            (fun acc e ->
              acc
              ||
              match e with
              | Call (("warp_scan_excl" | "warp_sum" | "warp_max"), _) -> true
              | _ -> false)
            false parent.f_body
        in
        Alcotest.(check bool) "collectives present" true uses_collective);
    t "semantics preserved at every granularity" (fun () ->
        List.iter
          (fun g -> ignore (Test_helpers.check_nested_variant (opts g)))
          [
            Aggregation.Warp;
            Aggregation.Block;
            Aggregation.Multi_block 1;
            Aggregation.Multi_block 3;
            Aggregation.Multi_block 16;
            Aggregation.Grid;
          ]);
    t "aggregation reduces the number of device launches" (fun () ->
        let _, plain = Test_helpers.check_nested_variant Pipeline.none in
        let _, agg =
          Test_helpers.check_nested_variant (opts (Aggregation.Multi_block 4))
        in
        Alcotest.(check bool) "fewer launches" true
          (agg.device_launches < plain.device_launches / 4));
    t "grid granularity performs zero device launches" (fun () ->
        let _, m = Test_helpers.check_nested_variant (opts Aggregation.Grid) in
        Alcotest.(check int) "device launches" 0 m.device_launches;
        Alcotest.(check bool) "host launched the aggregate" true
          (m.host_launches >= 2));
    t "aggregation logic appears in the breakdown" (fun () ->
        let _, m =
          Test_helpers.check_nested_variant (opts Aggregation.Block)
        in
        Alcotest.(check bool) "agg cycles" true (m.breakdown.agg_cycles > 0.0);
        Alcotest.(check bool) "disagg cycles" true
          (m.breakdown.disagg_cycles > 0.0));
    t "aggregation threshold falls back to direct launches (Section V-B)"
      (fun () ->
        (* with a huge aggregation threshold, no group aggregates: behaves
           like plain CDP but stays correct *)
        let r =
          Pipeline.run
            ~opts:
              (Pipeline.make ~granularity:Aggregation.Block
                 ~agg_threshold:10000 ())
            (Parser.program Test_helpers.nested_src)
        in
        let got, m = Test_helpers.run_nested r in
        Alcotest.(check (array int)) "output" (Test_helpers.expected_nested ()) got;
        Alcotest.(check bool) "direct launches happened" true
          (m.device_launches > 5));
    t "aggregation threshold at warp granularity" (fun () ->
        let r =
          Pipeline.run
            ~opts:
              (Pipeline.make ~granularity:Aggregation.Warp ~agg_threshold:2 ())
            (Parser.program Test_helpers.nested_src)
        in
        let got, _ = Test_helpers.run_nested r in
        Alcotest.(check (array int)) "output" (Test_helpers.expected_nested ()) got);
    t "launch inside a loop is rejected" (fun () ->
        let src =
          {|
__global__ void child(int* d) { d[blockIdx.x] = 1; }
__global__ void parent(int* d, int n) {
  for (int i = 0; i < n; i++) {
    child<<<1, 32>>>(d);
  }
}
|}
        in
        let r = transform src in
        Alcotest.(check bool) "not transformed" false
          (List.hd r.reports).sr_transformed;
        Alcotest.(check bool) "no agg kernel" false
          (List.exists (fun f -> f.f_name = "child_agg") r.prog));
    t "parent with early return is rejected" (fun () ->
        let src =
          {|
__global__ void child(int* d) { d[blockIdx.x] = 1; }
__global__ void parent(int* d, int n) {
  if (threadIdx.x >= n) { return; }
  child<<<1, 32>>>(d);
}
|}
        in
        let r = transform src in
        Alcotest.(check bool) "not transformed" false
          (List.hd r.reports).sr_transformed);
    t "aggregated block width is the max of participating blocks" (fun () ->
        (* two parents launch with different block sizes; the aggregated
           launch uses the max and masks extra threads *)
        let src =
          {|
__global__ void child(int* d, int slot, int bsize) {
  if (blockIdx.x == 0 && threadIdx.x == 0) {
    atomicAdd(&d[slot], bsize);
  }
}
__global__ void parent(int* d) {
  int v = threadIdx.x;
  if (v < 2) {
    child<<<1, (v + 1) * 16>>>(d, v, (v + 1) * 16);
  }
}
|}
        in
        let run opts =
          let r = Pipeline.run ~opts (Parser.program src) in
          let dev = Gpusim.Device.create ~cfg:Gpusim.Config.test_config () in
          Gpusim.Device.load_program dev r.prog ~auto_params:r.auto_params;
          let d = Gpusim.Device.alloc_int_zeros dev 2 in
          Gpusim.Device.launch dev ~kernel:"parent" ~grid:(1, 1, 1)
            ~block:(32, 1, 1) ~args:[ Gpusim.Value.Ptr d ];
          ignore (Gpusim.Device.sync dev);
          Gpusim.Device.read_ints dev d 2
        in
        let plain = run Pipeline.none in
        List.iter
          (fun g ->
            Alcotest.(check (array int))
              "heterogeneous block dims preserved" plain
              (run (opts g)))
          [ Aggregation.Warp; Aggregation.Block; Aggregation.Multi_block 2;
            Aggregation.Grid ]);
    t "partial trailing group still launches (multi-block)" (fun () ->
        (* 40 parents in blocks of 32 -> 2 parent blocks; group size 4 > 2:
           one partial group must still aggregate and launch *)
        let r =
          Pipeline.run
            ~opts:(Pipeline.make ~granularity:(Aggregation.Multi_block 4) ())
            (Parser.program Test_helpers.nested_src)
        in
        let got, m = Test_helpers.run_nested ~n:40 r in
        Alcotest.(check (array int)) "output" (Test_helpers.expected_nested ~n:40 ())
          got;
        Alcotest.(check int) "exactly one aggregated launch" 1
          m.device_launches);
    t "transformed program round-trips through the printer" (fun () ->
        List.iter
          (fun g ->
            let r = transform ~granularity:g Test_helpers.nested_src in
            Typecheck.check (Parser.program (Pretty.program r.prog)))
          [ Aggregation.Warp; Aggregation.Block; Aggregation.Multi_block 8 ]);
  ]
