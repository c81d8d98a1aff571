(* Pipeline composition tests: every T/C/A combination must preserve
   semantics; property-based check over random workloads. *)

open Dpopt

let t name f = Alcotest.test_case name `Quick f

let all_option_sets =
  let thresholds = [ None; Some 16 ] in
  let cfactors = [ None; Some 4 ] in
  let grans =
    [
      None;
      Some Aggregation.Warp;
      Some Aggregation.Block;
      Some (Aggregation.Multi_block 2);
      Some Aggregation.Grid;
    ]
  in
  List.concat_map
    (fun threshold ->
      List.concat_map
        (fun cfactor ->
          List.map
            (fun granularity ->
              Pipeline.make ?threshold ?cfactor ?granularity ())
            grans)
        cfactors)
    thresholds

let suite =
  [
    t "label renders enabled passes" (fun () ->
        Alcotest.(check string) "none" "CDP" (Pipeline.label Pipeline.none);
        Alcotest.(check string) "T" "CDP+T"
          (Pipeline.label (Pipeline.make ~threshold:1 ()));
        Alcotest.(check string) "TCA" "CDP+T+C+A"
          (Pipeline.label
             (Pipeline.make ~threshold:1 ~cfactor:2
                ~granularity:Aggregation.Block ())));
    t "all 20 T/C/A option sets preserve semantics" (fun () ->
        List.iter
          (fun opts -> ignore (Test_helpers.check_nested_variant opts))
          all_option_sets);
    t "every intermediate program typechecks (checked inside run)" (fun () ->
        List.iter
          (fun opts ->
            ignore
              (Pipeline.run ~opts
                 (Minicu.Parser.program Test_helpers.nested_src)))
          all_option_sets);
    t "passes are idempotent on launch-free programs" (fun () ->
        let src = "__global__ void k(int* d) { d[threadIdx.x] = 1; }" in
        let prog = Minicu.Parser.program src in
        let r =
          Pipeline.run
            ~opts:
              (Pipeline.make ~threshold:8 ~cfactor:4
                 ~granularity:Aggregation.Block ())
            prog
        in
        Alcotest.(check bool) "unchanged" true
          (Minicu.Ast.equal_program prog r.prog));
    t "run_source goes text to text" (fun () ->
        let text, r =
          Pipeline.run_source
            ~opts:(Pipeline.make ~threshold:8 ())
            Test_helpers.nested_src
        in
        Alcotest.(check bool) "serial fn in output" true
          (Test_helpers.has_fn r "child_serial");
        (* and the text parses back *)
        Minicu.Typecheck.check (Minicu.Parser.program text));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:30
         ~name:"random workloads preserved under random option sets"
         QCheck.(
           pair
             (list_of_size (Gen.int_range 1 25) (int_bound 70))
             (int_bound (List.length all_option_sets - 1)))
         (fun (degs, opt_idx) ->
           let opts = List.nth all_option_sets opt_idx in
           let n = List.length degs in
           let rows = Array.make (n + 1) 0 in
           List.iteri (fun i d -> rows.(i + 1) <- rows.(i) + d) degs;
           let total = rows.(n) in
           let r =
             Pipeline.run ~opts
               (Minicu.Parser.program Test_helpers.nested_src)
           in
           let dev =
             Gpusim.Device.create ~cfg:Gpusim.Config.test_config ()
           in
           Gpusim.Device.load_program dev r.prog ~auto_params:r.auto_params;
           let d_rows = Gpusim.Device.alloc_ints dev rows in
           let d_data =
             Gpusim.Device.alloc_ints dev (Array.init (max total 1) Fun.id)
           in
           Gpusim.Device.launch dev ~kernel:"parent"
             ~grid:((n + 31) / 32, 1, 1)
             ~block:(32, 1, 1)
             ~args:[ Ptr d_rows; Ptr d_data; Int n ];
           ignore (Gpusim.Device.sync dev);
           let got = Gpusim.Device.read_ints dev d_data (max total 1) in
           let expected =
             Array.init (max total 1) (fun i ->
                 if i < total then (i * 2) + 1 else i)
           in
           got = expected));
  ]
