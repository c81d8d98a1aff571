(* Scheduler behavior tests: launch congestion, SM utilization, followups,
   and the launch subsystem's accounting. *)

open Gpusim

let t name f = Alcotest.test_case name `Quick f

let device ?(cfg = Config.test_config) src =
  let dev = Device.create ~cfg () in
  Device.load_program dev (Minicu.Parser.program src);
  dev

(* A parent whose threads each launch one tiny child. *)
let fanout_src =
  {|
__global__ void child(int* o) {
  o[blockIdx.x] = o[blockIdx.x] + 0;
}
__global__ void parent(int* o, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    child<<<1, 32>>>(o);
  }
}
|}

let run_fanout ~cfg n =
  let dev = device ~cfg fanout_src in
  let out = Device.alloc_int_zeros dev 64 in
  Device.launch dev ~kernel:"parent"
    ~grid:((n + 31) / 32, 1, 1)
    ~block:(32, 1, 1)
    ~args:[ Value.Ptr out; Value.Int n ];
  let time = Device.sync dev in
  (time, Device.metrics dev)

let suite =
  [
    t "launch congestion grows superlinearly with launch count" (fun () ->
        let cfg = { Config.default with launch_service_interval = 500 } in
        let t1, m1 = run_fanout ~cfg 32 in
        let t2, m2 = run_fanout ~cfg 512 in
        Alcotest.(check int) "launch counts" 32 m1.device_launches;
        Alcotest.(check int) "launch counts" 512 m2.device_launches;
        (* 16x the launches should be much more than 16x slower overall
           because the queue serializes them *)
        Alcotest.(check bool) "congestion" true (t2 > t1 *. 8.0));
    t "pending-launch depth is tracked" (fun () ->
        let cfg = { Config.default with launch_service_interval = 500 } in
        let _, m = run_fanout ~cfg 256 in
        Alcotest.(check bool) "pending depth > 10" true
          (m.max_pending_launches > 10));
    t "a burst of n simultaneous launches peaks at n-1 pending" (fun () ->
        (* drive the grid-management unit directly: 5 launches issued at
           t=0 queue behind one service slot each; the launch being
           serviced is not pending behind itself, so the last one sees
           exactly 4 ahead of it *)
        let cfg = { Config.test_config with launch_service_interval = 100 } in
        let metrics = Metrics.create () in
        let sched = Sched.create cfg (Memory.create ()) metrics in
        let stream = Sched.default_stream sched in
        let readies =
          List.init 5 (fun _ ->
              Sched.process_device_launch sched stream ~issue:0.0)
        in
        Alcotest.(check int) "max pending" 4 metrics.max_pending_launches;
        (* service slots are spaced by the interval *)
        Alcotest.(check bool) "readies strictly increase" true
          (List.sort_uniq compare readies = readies
          && List.length readies = 5));
    t "service interval drives the queue" (fun () ->
        let slow =
          { Config.test_config with launch_service_interval = 1000 }
        in
        let fast = { Config.test_config with launch_service_interval = 10 } in
        let t_slow, _ = run_fanout ~cfg:slow 128 in
        let t_fast, _ = run_fanout ~cfg:fast 128 in
        Alcotest.(check bool) "slower queue, slower run" true
          (t_slow > t_fast *. 2.0));
    t "more SMs means faster independent blocks" (fun () ->
        let src =
          "__global__ void k(int* o) { int s = 0; for (int i = 0; i < 500; \
           i++) { s = s + o[i % 8]; } o[blockIdx.x % 8] = s; }"
        in
        let run num_sms =
          let dev = device ~cfg:{ Config.test_config with num_sms } src in
          let out = Device.alloc_int_zeros dev 8 in
          Device.launch dev ~kernel:"k" ~grid:(32, 1, 1) ~block:(32, 1, 1)
            ~args:[ Value.Ptr out ];
          Device.sync dev
        in
        let t1 = run 1 and t16 = run 16 in
        Alcotest.(check bool) "parallel speedup" true (t1 > t16 *. 4.0));
    t "host launches bypass the device launch queue" (fun () ->
        let dev =
          device
            ~cfg:{ Config.test_config with launch_service_interval = 100000 }
            "__global__ void k(int* o) { o[blockIdx.x] = 1; }"
        in
        let out = Device.alloc_int_zeros dev 4 in
        for _ = 1 to 4 do
          Device.launch dev ~kernel:"k" ~grid:(1, 1, 1) ~block:(1, 1, 1)
            ~args:[ Value.Ptr out ]
        done;
        let time = Device.sync dev in
        let m = Device.metrics dev in
        Alcotest.(check int) "host launches" 4 m.host_launches;
        Alcotest.(check int) "no device launches" 0 m.device_launches;
        Alcotest.(check bool) "unaffected by device queue interval" true
          (time < 50000.0));
    t "grid completion runs host followup" (fun () ->
        (* hand-build a program whose kernel has a host followup that
           launches a second kernel, as grid-granularity aggregation does *)
        let base =
          Minicu.Parser.program
            {|
__global__ void second(int* o) { o[1] = o[0] + 5; }
__global__ void first(int* o) { o[0] = 42; }
|}
        in
        let first = Minicu.Ast.find_func_exn base "first" in
        let followup =
          [
            Minicu.Ast.stmt
              (Minicu.Ast.Launch
                 {
                   l_kernel = "second";
                   l_grid = Minicu.Ast.Int_lit 1;
                   l_block = Minicu.Ast.Int_lit 1;
                   l_args = [ Minicu.Ast.Var "o" ];
                 });
          ]
        in
        let prog =
          Minicu.Ast.replace_func base
            { first with f_host_followup = Some followup }
        in
        let dev = Device.create ~cfg:Config.test_config () in
        Device.load_program dev prog;
        let out = Device.alloc_int_zeros dev 2 in
        Device.launch dev ~kernel:"first" ~grid:(1, 1, 1) ~block:(1, 1, 1)
          ~args:[ Value.Ptr out ];
        ignore (Device.sync dev);
        Alcotest.(check (array int)) "followup ran after grid" [| 42; 47 |]
          (Device.read_ints dev out 2);
        Alcotest.(check int) "followup used host launch path" 2
          (Device.metrics dev).host_launches);
    t "simulated clock is monotonic across syncs" (fun () ->
        let dev = device "__global__ void k(int* o) { o[0] = o[0] + 1; }" in
        let out = Device.alloc_int_zeros dev 1 in
        let times =
          List.init 3 (fun _ ->
              Device.launch dev ~kernel:"k" ~grid:(1, 1, 1) ~block:(1, 1, 1)
                ~args:[ Value.Ptr out ];
              Device.sync dev)
        in
        Alcotest.(check bool) "monotonic" true
          (List.sort compare times = times && List.length (List.sort_uniq compare times) = 3);
        Alcotest.(check (array int)) "all three ran" [| 3 |]
          (Device.read_ints dev out 1));
    t "launch accounting separates breakdown categories" (fun () ->
        let _, m = run_fanout ~cfg:Config.default 128 in
        Alcotest.(check bool) "parent work measured" true
          (m.breakdown.parent_cycles > 0.0);
        Alcotest.(check bool) "child work measured" true
          (m.breakdown.child_cycles > 0.0);
        Alcotest.(check bool) "launch busy measured" true
          (m.breakdown.launch_cycles > 0.0);
        Alcotest.(check (float 0.0)) "no aggregation logic in plain CDP" 0.0
          m.breakdown.agg_cycles);
    t "auto params are allocated and appended" (fun () ->
        let dev = Device.create ~cfg:Config.test_config () in
        let prog =
          Minicu.Parser.program
            "__global__ void k(int* o, int* extra) { extra[threadIdx.x] = 7; \
             o[threadIdx.x] = extra[threadIdx.x]; }"
        in
        Device.load_program dev prog
          ~auto_params:
            [
              ( "k",
                [
                  {
                    Dpopt.Aggregation.ap_name = "extra";
                    ap_elems =
                      (fun ~grid_blocks ~block_threads ->
                        grid_blocks * block_threads);
                  };
                ] );
            ];
        let out = Device.alloc_int_zeros dev 4 in
        (* note: only the user arg is passed; the runtime adds [extra] *)
        Device.launch dev ~kernel:"k" ~grid:(1, 1, 1) ~block:(4, 1, 1)
          ~args:[ Value.Ptr out ];
        ignore (Device.sync dev);
        Alcotest.(check (array int)) "auto buffer worked" [| 7; 7; 7; 7 |]
          (Device.read_ints dev out 4));
  ]

let trace_suite =
  [
    t "trace is off by default and complete when enabled" (fun () ->
        let dev = device fanout_src in
        let out = Device.alloc_int_zeros dev 64 in
        Device.launch dev ~kernel:"parent" ~grid:(1, 1, 1) ~block:(32, 1, 1)
          ~args:[ Value.Ptr out; Value.Int 8 ];
        ignore (Device.sync dev);
        Alcotest.(check int) "no events when disabled" 0
          (List.length (Device.trace_events dev));
        Device.enable_trace dev;
        Device.launch dev ~kernel:"parent" ~grid:(1, 1, 1) ~block:(32, 1, 1)
          ~args:[ Value.Ptr out; Value.Int 8 ];
        ignore (Device.sync dev);
        let evs = Device.trace_events dev in
        let launches =
          List.length
            (List.filter
               (function Trace.Grid_launched _ -> true | _ -> false)
               evs)
        in
        let completions =
          List.length
            (List.filter
               (function Trace.Grid_completed _ -> true | _ -> false)
               evs)
        in
        (* parent + 8 children *)
        Alcotest.(check int) "9 grids launched" 9 launches;
        Alcotest.(check int) "9 grids completed" 9 completions;
        let summaries, orphans = Trace.summarize evs in
        Alcotest.(check int) "9 summaries" 9 (List.length summaries);
        Alcotest.(check int) "no orphans" 0 (List.length orphans);
        List.iter
          (fun (s : Trace.grid_summary) ->
            Alcotest.(check bool) "finish after ready" true
              (s.g_finish >= s.g_info.t_ready);
            Alcotest.(check bool) "queue wait non-negative" true
              (s.g_info.t_ready >= s.g_info.t_issue))
          summaries;
        Device.clear_trace dev;
        Alcotest.(check int) "cleared" 0
          (List.length (Device.trace_events dev)));
    t "device-launch queue waits grow down the chain" (fun () ->
        let cfg = { Config.test_config with launch_service_interval = 100 } in
        let dev = device ~cfg fanout_src in
        Device.enable_trace dev;
        let out = Device.alloc_int_zeros dev 64 in
        Device.launch dev ~kernel:"parent" ~grid:(2, 1, 1) ~block:(32, 1, 1)
          ~args:[ Value.Ptr out; Value.Int 64 ];
        ignore (Device.sync dev);
        let waits =
          List.filter_map
            (function
              | Trace.Grid_launched i when not i.t_from_host ->
                  Some (i.t_ready -. i.t_issue)
              | _ -> None)
            (Device.trace_events dev)
        in
        Alcotest.(check int) "64 device launches traced" 64
          (List.length waits);
        Alcotest.(check bool) "congestion visible in waits" true
          (List.fold_left Float.max 0.0 waits
          > 10.0 *. List.fold_left Float.min infinity waits))
  ]

(* Appended after the trace suite so earlier test indices stay put. *)
let stream_suite =
  [
    t "auto-parameters belong to the stream they were loaded with" (fun () ->
        (* stream 1 runs the nested program after aggregation, with its
           auto-parameters; stream 2 the same program untransformed, on the
           same scheduler and memory *)
        let cfg = Config.test_config and n = 40 in
        let prog = Minicu.Parser.program Test_helpers.nested_src in
        let agg =
          Dpopt.Pipeline.run
            ~opts:(Dpopt.Pipeline.make ~granularity:Dpopt.Aggregation.Grid ())
            prog
        in
        let plain = Dpopt.Pipeline.run ~opts:Dpopt.Pipeline.none prog in
        let mem = Memory.create () in
        let sched = Sched.create cfg mem (Metrics.create ()) in
        let s1 = Sched.new_stream sched in
        let s2 = Sched.new_stream sched in
        Sched.load_stream ~auto_params:agg.auto_params sched s1 agg.prog;
        Sched.load_stream sched s2 plain.prog;
        (* the driver buffers of Test_helpers.run_nested, then one launch;
           returns the data buffer and the buffers the launch allocated *)
        let launch s =
          let rows = Array.init (n + 1) (fun i -> i * (i - 1) / 2) in
          let upload a =
            let p = Memory.alloc mem (Array.length a) ~init:(Value.Int 0) in
            Memory.write_ints mem p a;
            p
          in
          let d_rows = upload rows in
          let d_data = upload (Array.init rows.(n) Fun.id) in
          let before = Memory.buffer_count mem in
          Sched.host_launch sched s ~kernel:"parent"
            ~grid:((n + 31) / 32, 1, 1)
            ~block:(32, 1, 1)
            ~args:[ Value.Ptr d_rows; Value.Ptr d_data; Value.Int n ];
          (d_data, Memory.buffer_count mem - before)
        in
        let data1, allocated1 = launch s1 in
        let data2, allocated2 = launch s2 in
        Alcotest.(check int) "stream 1 allocates its capture buffers"
          (List.length (List.assoc "parent" agg.auto_params))
          allocated1;
        Alcotest.(check int) "stream 2 allocates none" 0 allocated2;
        ignore (Sched.run_to_idle sched);
        let total = n * (n - 1) / 2 in
        let single r = fst (Test_helpers.run_nested ~cfg ~n r) in
        Alcotest.(check (array int)) "stream 1 = single-stream run"
          (single agg) (Memory.read_ints mem data1 total);
        Alcotest.(check (array int)) "stream 2 = single-stream run"
          (single plain) (Memory.read_ints mem data2 total));
  ]

let suite = suite @ trace_suite @ stream_suite
