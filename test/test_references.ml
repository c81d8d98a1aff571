(* Cross-checks of the benchmark reference implementations themselves: the
   harness validates simulator output against these references, so the
   references must be right. Each is checked against an independent
   algorithm or invariant on random inputs. *)

let t name f = Alcotest.test_case name `Quick f

let random_graph seed n m =
  let rng = Workloads.Rng.create ~seed in
  let edges =
    List.init m (fun _ ->
        let a = Workloads.Rng.int rng n and b = Workloads.Rng.int rng n in
        (a, b, 1 + Workloads.Rng.int rng 50))
  in
  Workloads.Csr.symmetrize (Workloads.Csr.of_edges ~n edges)

(* Kruskal with union-find: the independent MST algorithm. *)
let kruskal (g : Workloads.Csr.t) =
  let parent = Array.init g.n Fun.id in
  let rec find v = if parent.(v) = v then v else find parent.(v) in
  let edges = ref [] in
  for v = 0 to g.n - 1 do
    for e = g.row.(v) to g.row.(v + 1) - 1 do
      if v < g.col.(e) then edges := (g.weight.(e), v, g.col.(e)) :: !edges
    done
  done;
  let total = ref 0 in
  List.iter
    (fun (w, a, b) ->
      let ra = find a and rb = find b in
      if ra <> rb then begin
        parent.(ra) <- rb;
        total := !total + w
      end)
    (List.sort compare !edges);
  !total

(* Brute-force triangle counting over vertex triples (small graphs). *)
let brute_triangles (g : Workloads.Csr.t) =
  let adj = Array.make_matrix g.n g.n false in
  for v = 0 to g.n - 1 do
    Array.iter (fun u -> adj.(v).(u) <- true) (Workloads.Csr.neighbors g v)
  done;
  let count = ref 0 in
  for a = 0 to g.n - 1 do
    for b = a + 1 to g.n - 1 do
      if adj.(a).(b) then
        for c = b + 1 to g.n - 1 do
          if adj.(a).(c) && adj.(b).(c) then incr count
        done
    done
  done;
  !count

let suite =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:40
         ~name:"MST reference: Boruvka total equals Kruskal total"
         QCheck.(pair (int_range 2 40) (int_range 1 120))
         (fun (n, m) ->
           let g = random_graph (n * 1000 + m) n m in
           (* tie-break weights so the MST weight is determined: Boruvka
              packs edge ids; Kruskal ignores them — totals agree even with
              ties because all MSTs share the same total weight *)
           let boruvka_total, _, _ = Benchmarks.Mst.host_boruvka g in
           boruvka_total = kruskal g));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:25
         ~name:"TC reference: binary-search count equals brute force"
         QCheck.(pair (int_range 3 25) (int_range 1 80))
         (fun (n, m) ->
           let g =
             Workloads.Csr.sort_neighbors (random_graph (n * 7 + m) n m)
           in
           let cap = 10_000 in
           Benchmarks.Tc.reference g ~cap () = brute_triangles g));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:30
         ~name:"BFS reference: adjacent levels differ by at most one"
         QCheck.(pair (int_range 2 40) (int_range 1 120))
         (fun (n, m) ->
           let g = random_graph (n * 13 + m) n m in
           (* recompute levels the same way the reference does, then check
              the BFS invariant *)
           let labels = Array.make g.n (-1) in
           labels.(0) <- 0;
           let q = Queue.create () in
           Queue.add 0 q;
           while not (Queue.is_empty q) do
             let v = Queue.pop q in
             Array.iter
               (fun u ->
                 if labels.(u) = -1 then begin
                   labels.(u) <- labels.(v) + 1;
                   Queue.add u q
                 end)
               (Workloads.Csr.neighbors g v)
           done;
           let ok = ref true in
           for v = 0 to g.n - 1 do
             Array.iter
               (fun u ->
                 if labels.(v) >= 0 && labels.(u) >= 0 then
                   ok := !ok && abs (labels.(v) - labels.(u)) <= 1
                 else ok := !ok && labels.(v) = -1 = (labels.(u) = -1))
               (Workloads.Csr.neighbors g v)
           done;
           !ok
           && Benchmarks.Bfs.reference g ()
              = Benchmarks.Bench_common.array_hash labels));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:30
         ~name:"SSSP reference: distances satisfy the relaxation property"
         QCheck.(pair (int_range 2 30) (int_range 1 90))
         (fun (n, m) ->
           let g = random_graph (n * 31 + m) n m in
           (* Bellman-Ford from scratch must agree with the Dijkstra
              reference hash *)
           let inf = Benchmarks.Sssp.inf in
           let dist = Array.make g.n inf in
           dist.(0) <- 0;
           for _ = 1 to g.n do
             for v = 0 to g.n - 1 do
               if dist.(v) < inf then
                 for e = g.row.(v) to g.row.(v + 1) - 1 do
                   let u = g.col.(e) in
                   if dist.(v) + g.weight.(e) < dist.(u) then
                     dist.(u) <- dist.(v) + g.weight.(e)
                 done
             done
           done;
           Benchmarks.Sssp.reference g ()
           = Benchmarks.Bench_common.array_hash dist));
    t "SP factor-graph arrays are mutually consistent" (fun () ->
        let f = Workloads.Sat.rand3 ~n_vars:60 ~n_clauses:220 () in
        let a = Benchmarks.Sp.build_arrays f in
        (* every occurrence points to a clause slot owned by its variable *)
        for v = 0 to f.n_vars - 1 do
          for oi = a.o_row.(v) to a.o_row.(v + 1) - 1 do
            let c = a.o_cidx.(oi) and slot = a.o_slot.(oi) in
            let lit = f.clauses.(c).(slot) in
            Alcotest.(check int) "slot belongs to variable" v (abs lit - 1)
          done
        done;
        Alcotest.(check int) "cells = total literals" a.n_cells
          (Array.fold_left (fun s c -> s + Array.length c) 0 f.clauses));
    t "BT reference equals the simulator bit for bit" (fun () ->
        (* stronger than the generic harness check: run on a dataset with
           degenerate (near-straight) lines that stress the len guard *)
        let d =
          Workloads.Bezier.generate ~seed:99 ~name:"straightish" ~n_lines:50
            ~max_tessellation:64 ~curvature_scale:0.001 ()
        in
        let spec = Benchmarks.Bt.spec ~dataset:d in
        let fp, _, _ = Benchmarks.Bench_common.(run_variant spec No_cdp) in
        Alcotest.(check int) "fingerprints" (spec.reference ()) fp);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200
         ~name:"parser fuzz: random input never crashes or loops"
         QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 60)
                   (QCheck.Gen.char_range ' ' '~'))
         (fun s ->
           match Minicu.Parser.program s with
           | _ -> true
           | exception Minicu.Loc.Error _ -> true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200
         ~name:"lexer fuzz: token streams always terminate"
         QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 80)
                   (QCheck.Gen.char_range ' ' '~'))
         (fun s ->
           match Minicu.Lexer.tokenize s with
           | toks -> List.length toks <= String.length s + 1
           | exception Minicu.Loc.Error _ -> true));
  ]
