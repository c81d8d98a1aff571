(* Benchmark integration tests: every Table I benchmark validates against
   its pure-OCaml reference under a spread of optimization variants. These
   are the paper's correctness bar: the compiler must never change program
   output. Marked `Slow where heavy. *)

let variants =
  Benchmarks.Bench_common.
    [
      ("No CDP", No_cdp);
      ("CDP", Cdp Dpopt.Pipeline.none);
      ("CDP+T", Cdp (Dpopt.Pipeline.make ~threshold:32 ()));
      ("CDP+C", Cdp (Dpopt.Pipeline.make ~cfactor:4 ()));
      ("CDP+A warp", Cdp (Dpopt.Pipeline.make ~granularity:Dpopt.Aggregation.Warp ()));
      ("CDP+A block", Cdp (Dpopt.Pipeline.make ~granularity:Dpopt.Aggregation.Block ()));
      ( "CDP+A grid",
        Cdp (Dpopt.Pipeline.make ~granularity:Dpopt.Aggregation.Grid ()) );
      ( "CDP+T+C+A mb4",
        Cdp
          (Dpopt.Pipeline.make ~threshold:32 ~cfactor:4
             ~granularity:(Dpopt.Aggregation.Multi_block 4) ()) );
    ]

(* tiny datasets so the full matrix stays fast *)
let specs () : Benchmarks.Bench_common.spec list =
  let kron = Workloads.Graph_gen.kron_dataset ~scale:7 () in
  let road = Workloads.Graph_gen.road_dataset ~rows:12 ~cols:12 () in
  let t32 = Workloads.Bezier.t0032_c16 ~n_lines:60 () in
  let t2048 = Workloads.Bezier.t2048_c64 ~n_lines:12 () in
  let rand3 = Workloads.Sat.rand3 ~n_vars:80 ~n_clauses:300 () in
  [
    Benchmarks.Bfs.spec ~dataset:kron;
    Benchmarks.Bfs.spec ~dataset:road;
    Benchmarks.Sssp.spec ~dataset:kron;
    Benchmarks.Mst.mstf_spec ~dataset:kron;
    Benchmarks.Mst.mstv_spec ~dataset:kron;
    Benchmarks.Sp.spec ~formula:rand3;
    Benchmarks.Tc.spec ~cap:400 ~dataset:kron ();
    Benchmarks.Bt.spec ~dataset:t32;
    Benchmarks.Bt.spec ~dataset:t2048;
  ]

let case (spec : Benchmarks.Bench_common.spec) (vname, v) =
  Alcotest.test_case
    (Fmt.str "%s/%s under %s" spec.name spec.dataset vname)
    `Slow
    (fun () ->
      let fp, _, _ = Benchmarks.Bench_common.run_variant spec v in
      let expected = spec.reference () in
      if fp <> expected then
        Alcotest.failf "fingerprint %d, reference %d" fp expected)

let structural =
  [
    Alcotest.test_case "registry covers the Table I matrix" `Quick (fun () ->
        let all = Benchmarks.Registry.all ~size:Small () in
        Alcotest.(check int) "14 bench/dataset pairs" 14 (List.length all);
        let names =
          List.sort_uniq compare
            (List.map (fun (s : Benchmarks.Bench_common.spec) -> s.name) all)
        in
        Alcotest.(check (list string)) "benchmarks"
          [ "BFS"; "BT"; "MSTF"; "MSTV"; "SP"; "SSSP"; "TC" ]
          names);
    Alcotest.test_case "road registry has the four graph benchmarks" `Quick
      (fun () ->
        let road = Benchmarks.Registry.road ~size:Small () in
        Alcotest.(check int) "4 pairs" 4 (List.length road);
        List.iter
          (fun (s : Benchmarks.Bench_common.spec) ->
            Alcotest.(check string) "dataset" "ROAD" s.dataset)
          road);
    Alcotest.test_case "registry find" `Quick (fun () ->
        Alcotest.(check bool) "BFS/KRON exists" true
          (Benchmarks.Registry.find ~name:"BFS" ~dataset:"KRON" () <> None);
        (* unknown pairs, including known names on the wrong dataset *)
        List.iter
          (fun (name, dataset) ->
            Alcotest.(check bool)
              (name ^ "/" ^ dataset ^ " absent")
              true
              (Benchmarks.Registry.find ~name ~dataset () = None))
          [
            ("XX", "KRON"); ("BT", "KRON"); ("BFS", "T0032-C16"); ("bfs", "KRON");
          ]);
    Alcotest.test_case "CDP sources parse and typecheck" `Quick (fun () ->
        List.iter
          (fun (s : Benchmarks.Bench_common.spec) ->
            Minicu.Typecheck.check (Minicu.Parser.program s.cdp_src);
            Minicu.Typecheck.check (Minicu.Parser.program s.no_cdp_src))
          (specs ()));
    Alcotest.test_case "max_child_threads bounds the real launches" `Quick
      (fun () ->
        (* the threshold-tuning upper bound must be a real bound: the CDP
           versions must have at least one launch of that size *)
        List.iter
          (fun (s : Benchmarks.Bench_common.spec) ->
            Alcotest.(check bool)
              (s.name ^ " bound positive")
              true (s.max_child_threads > 0))
          (specs ()));
  ]

(* [find] builds, for every pair, the spec the registry lists. *)
let find_matches_registry =
  Alcotest.test_case "find builds the registry's spec for every pair" `Quick
    (fun () ->
      List.iter
        (fun (s : Benchmarks.Bench_common.spec) ->
          let pair = s.name ^ "/" ^ s.dataset in
          match
            Benchmarks.Registry.find ~size:Small ~name:s.name
              ~dataset:s.dataset ()
          with
          | None -> Alcotest.failf "%s: not found" pair
          | Some f ->
              Alcotest.(check string) (pair ^ " name") s.name f.name;
              Alcotest.(check string) (pair ^ " dataset") s.dataset f.dataset;
              Alcotest.(check int)
                (pair ^ " reference") (s.reference ()) (f.reference ());
              Alcotest.(check bool)
                (pair ^ " workload") true (s.workload = f.workload);
              Alcotest.(check int)
                (pair ^ " max_child_threads") s.max_child_threads
                f.max_child_threads)
        (Benchmarks.Registry.all ~size:Small ()
        @ Benchmarks.Registry.road ~size:Small ()))

(* Each spec's reference is computed once, and a second call returns the
   same value. *)
let reference_once =
  [
    Alcotest.test_case "once computes on the first call only" `Quick
      (fun () ->
        let calls = ref 0 in
        let f =
          Benchmarks.Bench_common.once (fun () ->
              incr calls;
              !calls * 10)
        in
        Alcotest.(check int) "first" 10 (f ());
        Alcotest.(check int) "second" 10 (f ());
        Alcotest.(check int) "computed" 1 !calls);
    Alcotest.test_case "every registry reference is stable across calls"
      `Slow (fun () ->
        List.iter
          (fun (s : Benchmarks.Bench_common.spec) ->
            let first = s.reference () in
            Alcotest.(check int)
              (s.name ^ "/" ^ s.dataset)
              first (s.reference ()))
          (Benchmarks.Registry.all ~size:Small ()
          @ Benchmarks.Registry.road ~size:Small ()));
  ]

let suite =
  structural
  @ List.concat_map (fun s -> List.map (case s) variants) (specs ())
  @ [ find_matches_registry ] @ reference_once
