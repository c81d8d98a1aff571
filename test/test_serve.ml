(* Compile-service tests (lib/serve): the sharded LRU, metrics JSON, the
   engine's cached-vs-uncached byte identity over the whole golden corpus,
   the warm-cache throughput bar, and the shared CLI error surface. *)

let t name f = Alcotest.test_case name `Quick f

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ---- corpus -------------------------------------------------------- *)

(* Under `dune runtest` cwd is _build/default/test (staged corpus/ and
   built ../bin); under `dune exec` from the repo root it is the root. *)
let corpus_dir () =
  if Sys.file_exists "corpus" then "corpus"
  else if Sys.file_exists "test/corpus" then "test/corpus"
  else Fmt.failwith "cannot locate the corpus directory from %s" (Sys.getcwd ())

let bin_dir () =
  if Sys.file_exists "../bin/dpoptc.exe" then "../bin"
  else if Sys.file_exists "_build/default/bin/dpoptc.exe" then
    "_build/default/bin"
  else Fmt.failwith "cannot locate the CLI binaries from %s" (Sys.getcwd ())

let corpus_sources () =
  let corpus = corpus_dir () in
  Sys.readdir corpus |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".minicu")
  |> List.sort String.compare
  |> List.map (fun f ->
         ( f,
           In_channel.with_open_text (Filename.concat corpus f)
             In_channel.input_all ))

let eight_combos () =
  Dpopt.Pipeline.enumerate ~threshold:32 ~cfactor:2
    ~granularity:(Dpopt.Aggregation.Multi_block 4) ~agg_threshold:4 ()

(* ---- suite --------------------------------------------------------- *)

let suite =
  [
    t "lru: recency order decides eviction" (fun () ->
        let c = Serve.Lru.create ~shards:1 ~bytes:10 () in
        Serve.Lru.add c ~key:"a" ~size:4 "A";
        Serve.Lru.add c ~key:"b" ~size:4 "B";
        (* touch a, so b is now the LRU entry *)
        Alcotest.(check (option string)) "a hit" (Some "A") (Serve.Lru.find c "a");
        Serve.Lru.add c ~key:"c" ~size:4 "C";
        Alcotest.(check (option string)) "b evicted" None (Serve.Lru.find c "b");
        Alcotest.(check (option string)) "a kept" (Some "A") (Serve.Lru.find c "a");
        Alcotest.(check (option string)) "c kept" (Some "C") (Serve.Lru.find c "c");
        let s = Serve.Lru.stats c in
        Alcotest.(check int) "entries" 2 s.Serve.Lru.entries;
        Alcotest.(check int) "bytes" 8 s.Serve.Lru.bytes;
        Alcotest.(check int) "insertions" 3 s.Serve.Lru.insertions;
        Alcotest.(check int) "evictions" 1 s.Serve.Lru.evictions);
    t "lru: add replaces an existing key" (fun () ->
        let c = Serve.Lru.create ~shards:1 ~bytes:100 () in
        Serve.Lru.add c ~key:"k" ~size:10 1;
        Serve.Lru.add c ~key:"k" ~size:20 2;
        Alcotest.(check (option int)) "latest value" (Some 2)
          (Serve.Lru.find c "k");
        let s = Serve.Lru.stats c in
        Alcotest.(check int) "one entry" 1 s.Serve.Lru.entries;
        Alcotest.(check int) "replaced bytes" 20 s.Serve.Lru.bytes);
    t "lru: oversized entries are not admitted" (fun () ->
        let c = Serve.Lru.create ~shards:1 ~bytes:10 () in
        Serve.Lru.add c ~key:"big" ~size:11 ();
        Alcotest.(check bool) "absent" true (Serve.Lru.find c "big" = None);
        Alcotest.(check int) "empty" 0 (Serve.Lru.stats c).Serve.Lru.entries);
    t "lru: shards split the budget but not the key space" (fun () ->
        let c = Serve.Lru.create ~shards:4 ~bytes:4000 () in
        for i = 1 to 40 do
          Serve.Lru.add c ~key:(string_of_int i) ~size:10 i
        done;
        for i = 1 to 40 do
          Alcotest.(check (option int))
            (Fmt.str "key %d" i)
            (Some i)
            (Serve.Lru.find c (string_of_int i))
        done);
    t "metrics: empty snapshot renders null, not nan" (fun () ->
        let s = Serve.Metrics.snapshot (Serve.Metrics.create ()) in
        Alcotest.(check bool) "hit rate nan" true (Float.is_nan s.hit_rate);
        let j = Serve.Metrics.json s in
        Alcotest.(check bool) "no nan token" false
          (contains ~sub:"nan" j);
        Alcotest.(check bool) "null present" true
          (contains ~sub:"\"p50_ms\": null" j));
    t "metrics: counters and percentiles" (fun () ->
        let m = Serve.Metrics.create () in
        Serve.Metrics.lookup m ~stage:"parse" ~hit:false;
        Serve.Metrics.lookup m ~stage:"parse" ~hit:true;
        Serve.Metrics.lookup m ~stage:"parse" ~hit:true;
        Serve.Metrics.lookup m ~stage:"dpcheck" ~hit:false;
        List.iter (Serve.Metrics.latency m) [ 0.001; 0.002; 0.003; 0.004 ];
        let s = Serve.Metrics.snapshot m in
        Alcotest.(check int) "lookups" 4 s.lookups;
        Alcotest.(check (float 1e-9)) "hit rate" 0.5 s.hit_rate;
        Alcotest.(check int) "requests" 4 s.requests;
        Alcotest.(check (float 1e-6)) "p50" 2.5 s.p50_ms;
        Alcotest.(check (float 1e-6)) "p99" 3.97 s.p99_ms;
        Alcotest.(check (list (pair string (pair int int))))
          "stage counters"
          [ ("dpcheck", (0, 1)); ("parse", (2, 1)) ]
          (List.map
             (fun ((n, c) : string * Serve.Metrics.stage_counters) ->
               (n, (c.hits, c.misses)))
             s.stages));
    t "engine: corpus x 8 combos, cold and warm, byte-identical" (fun () ->
        (* One engine across the whole matrix, so pass-stage entries are
           shared across option records; a fixed profile exercises the
           predict stage on every fixture. *)
        let eng = Serve.Engine.create () in
        let profile =
          Costmodel.Profile.synthetic ~seed:7 ~items:64 ~mean:32 ()
        in
        let jobs =
          List.concat_map
            (fun (file, src) ->
              List.map
                (fun (label, opts) ->
                  ( label,
                    {
                      Serve.Engine.rq_file = file;
                      rq_src = src;
                      rq_opts = opts;
                      rq_profile = Some profile;
                    } ))
                (eight_combos ()))
            (corpus_sources ())
        in
        let pass () = List.map (fun (_, rq) -> Serve.Engine.compile eng rq) jobs in
        let cold = pass () in
        let warm = pass () in
        List.iteri
          (fun i ((label, rq), (c, w)) ->
            let name = Fmt.str "%s [%s] #%d" rq.Serve.Engine.rq_file label i in
            (match (c : (Serve.Engine.response, string) result) with
            | Error d -> Alcotest.failf "%s rejected: %s" name d
            | Ok rs ->
                let expected, _ =
                  Dpopt.Pipeline.run_source ~opts:rq.rq_opts rq.rq_src
                in
                Alcotest.(check string)
                  (name ^ " matches uncached pipeline")
                  expected rs.rs_optimized;
                Alcotest.(check (list string))
                  (name ^ " diags match direct dpcheck")
                  (List.map
                     (Fmt.str "%a" Analysis.Static.pp_diag)
                     (Analysis.Static.check_program
                        (Minicu.Parser.program ~file:rq.rq_file rq.rq_src)))
                  rs.rs_diags);
            if c <> w then Alcotest.failf "%s: warm response diverged" name)
          (List.combine jobs (List.combine cold warm));
        (* the warm pass must have answered everything from cache *)
        let s = Serve.Engine.metrics eng in
        let hits, lookups =
          List.fold_left
            (fun (h, n) ((_, c) : string * Serve.Metrics.stage_counters) ->
              (h + c.hits, n + c.hits + c.misses))
            (0, 0) s.stages
        in
        Alcotest.(check bool)
          (Fmt.str "hit rate %d/%d >= 1/2" hits lookups)
          true
          (2 * hits >= lookups));
    t "engine: textual noise misses parse but hits the pass stages" (fun () ->
        let _, src = List.hd (corpus_sources ()) in
        let opts = Dpopt.Pipeline.make ~threshold:32 ~cfactor:2 () in
        let eng = Serve.Engine.create () in
        let rq =
          {
            Serve.Engine.rq_file = "noise.cu";
            rq_src = src;
            rq_opts = opts;
            rq_profile = None;
          }
        in
        let r1 = Serve.Engine.compile eng rq in
        let before = Serve.Engine.metrics eng in
        (* same program, different bytes: trailing blank lines *)
        let r2 = Serve.Engine.compile eng { rq with rq_src = src ^ "\n\n" } in
        let after = Serve.Engine.metrics eng in
        Alcotest.(check bool) "same response" true (r1 = r2);
        let count p (s : Serve.Metrics.snapshot) =
          List.fold_left
            (fun n ((name, c) : string * Serve.Metrics.stage_counters) ->
              if String.length name >= 5 && String.sub name 0 5 = "pass:" then
                n + p c
              else n)
            0 s.stages
        in
        let hits (c : Serve.Metrics.stage_counters) = c.hits in
        let misses (c : Serve.Metrics.stage_counters) = c.misses in
        Alcotest.(check int) "no new pass misses" (count misses before)
          (count misses after);
        Alcotest.(check bool) "pass hits grew" true
          (count hits after > count hits before));
    t "engine: rejection carries the CLI's one-line diagnostic" (fun () ->
        let eng = Serve.Engine.create () in
        let compile src =
          Serve.Engine.compile eng
            {
              Serve.Engine.rq_file = "job-1";
              rq_src = src;
              rq_opts = Dpopt.Pipeline.none;
              rq_profile = None;
            }
        in
        (match compile "__global__ void k(int* d) { d[0] = ; }" with
        | Ok _ -> Alcotest.fail "parse error accepted"
        | Error d ->
            Alcotest.(check bool) (d ^ " carries loc") true
              (String.starts_with ~prefix:"job-1:1:" d));
        (match compile "__global__ void k(int* d) { x = 1; }" with
        | Ok _ -> Alcotest.fail "type error accepted"
        | Error d ->
            Alcotest.(check bool)
              (d ^ " is a loc-bearing type error")
              true
              (String.starts_with ~prefix:"job-1:1:" d
              && contains ~sub:"type error:" d));
        (* unknown exceptions are internal and must re-raise, not render *)
        Alcotest.(check bool) "unknown exn not rendered" true
          (Serve.Errors.render ~file:"f" Exit = None));
    Alcotest.test_case "traffic: warm pass >= 3x cold, byte-identical" `Slow
      (fun () ->
        let r =
          Serve.Traffic.replay ~jobs:2
            { Serve.Traffic.default with requests = 200 }
        in
        Alcotest.(check int) "requests" 200 r.total;
        Alcotest.(check int) "no rejections" 0 r.rejected;
        Alcotest.(check bool) "byte-identical" true r.identical;
        Alcotest.(check bool)
          (Fmt.str "warm hit rate %.2f >= 0.5" r.warm_hit_rate)
          true
          (r.warm_hit_rate >= 0.5);
        Alcotest.(check bool)
          (Fmt.str "speedup %.1fx >= 3x (cold %.3fs warm %.3fs)" r.speedup
             r.cold_s r.warm_s)
          true (r.speedup >= 3.0);
        (* the run's metrics artifact, same schema dpoptd --json writes *)
        let j = Serve.Traffic.json_of_run r in
        List.iter
          (fun needle ->
            Alcotest.(check bool) (needle ^ " in json") true
              (contains ~sub:needle j))
          [ "\"hit_rate\""; "\"p50_ms\""; "\"p99_ms\""; "\"speedup\"" ];
        Out_channel.with_open_text "BENCH_serve.json" (fun oc ->
            Out_channel.output_string oc j;
            Out_channel.output_char oc '\n'));
    t "traffic: stream is deterministic in its seed" (fun () ->
        let s1 = Serve.Traffic.requests Serve.Traffic.default in
        let s2 = Serve.Traffic.requests Serve.Traffic.default in
        let s3 =
          Serve.Traffic.requests { Serve.Traffic.default with seed = 43 }
        in
        Alcotest.(check bool) "same seed, same stream" true (s1 = s2);
        Alcotest.(check bool) "different seed, different stream" true
          (s1 <> s3));
    t "cli: dpoptc rejects bad input with one line, no backtrace" (fun () ->
        let run_cli args =
          let err = Filename.temp_file "dpoptc" ".err" in
          let code =
            Sys.command
              (Fmt.str "%s/dpoptc.exe %s >/dev/null 2>%s" (bin_dir ()) args
                 (Filename.quote err))
          in
          let lines = In_channel.with_open_text err In_channel.input_lines in
          Sys.remove err;
          (code, lines)
        in
        let bad kind contents expect_infix =
          let f = Filename.temp_file "dpoptc_bad" ".cu" in
          Out_channel.with_open_text f (fun oc ->
              Out_channel.output_string oc contents);
          let code, lines = run_cli (Filename.quote f) in
          Sys.remove f;
          Alcotest.(check int) (kind ^ " exit code") 1 code;
          (match lines with
          | [ line ] ->
              Alcotest.(check bool)
                (Fmt.str "%s diagnostic %S mentions %S" kind line expect_infix)
                true
                (contains ~sub:expect_infix line)
          | _ ->
              Alcotest.failf "%s: expected one diagnostic line, got %d" kind
                (List.length lines));
          List.iter
            (fun l ->
              if
                contains ~sub:"Raised at" l
                || contains ~sub:"Fatal error" l
              then Alcotest.failf "%s leaked a backtrace: %s" kind l)
            lines
        in
        bad "parse error" "__global__ void k(int* d) { d[0] = ; }"
          "error: expected expression";
        bad "type error" "__global__ void k(int* d) {\n  x = 1;\n}"
          "type error:";
        bad "unterminated" "int f(" "error:";
        (* a directory passes cmdliner's existence check but cannot be read *)
        let code, lines = run_cli "/" in
        Alcotest.(check int) "directory exit code" 1 code;
        Alcotest.(check int) "directory one line" 1 (List.length lines));
    t "cli: dpoptd rejects bad jobs and keeps the batch going" (fun () ->
        let good = Filename.temp_file "dpoptd_ok" ".cu" in
        Out_channel.with_open_text good (fun oc ->
            Out_channel.output_string oc
              "__global__ void k(int* d) { d[0] = 1; }");
        let badf = Filename.temp_file "dpoptd_bad" ".cu" in
        Out_channel.with_open_text badf (fun oc ->
            Out_channel.output_string oc "int f(");
        let out = Filename.temp_file "dpoptd" ".out" in
        let code =
          Sys.command
            (Fmt.str "%s/dpoptd.exe %s %s >%s 2>/dev/null" (bin_dir ())
               (Filename.quote good) (Filename.quote badf) (Filename.quote out))
        in
        let stdout = In_channel.with_open_text out In_channel.input_lines in
        List.iter Sys.remove [ good; badf; out ];
        Alcotest.(check int) "exit 1 on any rejection" 1 code;
        Alcotest.(check bool) "good job still compiled" true
          (List.exists
             (fun l -> contains ~sub:"ok [CDP]" l)
             stdout));
    t "cli: bench/main.exe rejects unknown names and flags, exit 2"
      (fun () ->
        let bench =
          if Sys.file_exists "../bench/main.exe" then "../bench/main.exe"
          else "_build/default/bench/main.exe"
        in
        List.iter
          (fun (args, names) ->
            let out = Filename.temp_file "bench" ".out"
            and err = Filename.temp_file "bench" ".err" in
            let code =
              Sys.command
                (Fmt.str "%s %s >%s 2>%s" bench args (Filename.quote out)
                   (Filename.quote err))
            in
            let stdout = In_channel.with_open_text out In_channel.input_all
            and lines = In_channel.with_open_text err In_channel.input_lines in
            List.iter Sys.remove [ out; err ];
            Alcotest.(check int) (args ^ ": exit code") 2 code;
            Alcotest.(check string) (args ^ ": nothing ran") "" stdout;
            match lines with
            | [ line ] ->
                Alcotest.(check bool)
                  (Fmt.str "%s: %S names %S" args line names)
                  true
                  (contains ~sub:names line)
            | _ ->
                Alcotest.failf "%s: expected one stderr line, got %d" args
                  (List.length lines))
          [
            ("fig99", "fig9 | fig10");
            ("fig9 --size medium", "--size=small|medium|large");
            ("--size=huge fig9", "small | medium | large");
            ("-j x fig9", "positive integer");
            ("fig9 -j", "positive integer");
            ("--jobs=0 fig9", "positive integer");
            ("--threads=2 fig9", "--sample");
          ]);
    t "key: profile key is the digest of its string_of_int rendering"
      (fun () ->
        (* Key.profile renders its ints by hand; every key, and every
           request digest built from one, must stay what string_of_int
           renders, at any int. *)
        let reference (p : Costmodel.Profile.t) =
          Digest.to_hex
            (Digest.string
               (Fmt.str "%d:%d:%s" p.rounds p.parent_block
                  (String.concat ""
                     (Array.to_list
                        (Array.map
                           (fun s -> string_of_int s ^ ",")
                           p.child_sizes)))))
        in
        List.iter
          (fun (p : Costmodel.Profile.t) ->
            Alcotest.(check string)
              (Fmt.str "rounds %d block %d, %d sizes" p.rounds p.parent_block
                 (Array.length p.child_sizes))
              (reference p) (Serve.Key.profile p))
          [
            { child_sizes = [||]; rounds = 0; parent_block = 0 };
            {
              child_sizes = [| 0; 1; 9; 10; 99; 100; 12345; -1; -10 |];
              rounds = 7;
              parent_block = 256;
            };
            {
              child_sizes = [| max_int; min_int; max_int - 1; min_int + 1 |];
              rounds = -3;
              parent_block = min_int;
            };
            Costmodel.Profile.synthetic ~seed:7 ~items:64 ~mean:32 ();
          ]);
    t "cli: dpoptc, dpoptd and runbench accept every -A spelling" (fun () ->
        let src = Filename.temp_file "agg" ".cu" in
        Out_channel.with_open_text src (fun oc ->
            Out_channel.output_string oc
              "__global__ void k(int* d) { d[0] = 1; }");
        let out = Filename.temp_file "agg" ".out" in
        let run cmd =
          let code =
            Sys.command
              (Fmt.str "%s >%s 2>/dev/null" cmd (Filename.quote out))
          in
          (code, In_channel.with_open_text out In_channel.input_all)
        in
        List.iter
          (fun g ->
            let code, _ =
              run
                (Fmt.str "%s/dpoptc.exe -A %s %s" (bin_dir ()) g
                   (Filename.quote src))
            in
            Alcotest.(check int) ("dpoptc -A " ^ g) 0 code;
            let code, stdout =
              run
                (Fmt.str "%s/dpoptd.exe -A %s %s" (bin_dir ()) g
                   (Filename.quote src))
            in
            Alcotest.(check int) ("dpoptd -A " ^ g) 0 code;
            Alcotest.(check bool)
              ("dpoptd -A " ^ g ^ " aggregates")
              true
              (contains ~sub:"ok [CDP+A]" stdout);
            let code, stdout =
              run
                (Fmt.str "%s/runbench.exe BFS KRON -T 64 -C 8 -A %s"
                   (bin_dir ()) g)
            in
            Alcotest.(check int) ("runbench -A " ^ g) 0 code;
            Alcotest.(check bool)
              ("runbench -A " ^ g ^ " validated")
              true
              (contains ~sub:"validated against reference" stdout))
          [ "warp"; "block"; "grid"; "multiblock:4"; "multi-block:4" ];
        List.iter Sys.remove [ src; out ]);
    t "cli: dpoptc, dpoptd and runbench reject a bad -A alike" (fun () ->
        let src = Filename.temp_file "agg" ".cu" in
        Out_channel.with_open_text src (fun oc ->
            Out_channel.output_string oc
              "__global__ void k(int* d) { d[0] = 1; }");
        let err = Filename.temp_file "agg" ".err" in
        List.iter
          (fun (g, names) ->
            List.iter
              (fun cli ->
                let code =
                  Sys.command
                    (Fmt.str "%s/%s -A %s >/dev/null 2>%s" (bin_dir ()) cli g
                       (Filename.quote err))
                in
                (* cmdliner wraps long messages; compare with spaces
                   collapsed *)
                let msg =
                  In_channel.with_open_text err In_channel.input_all
                  |> String.split_on_char '\n'
                  |> List.concat_map (String.split_on_char ' ')
                  |> List.filter (( <> ) "")
                  |> String.concat " "
                in
                Alcotest.(check int) (Fmt.str "%s -A %s: exit" cli g) 124 code;
                Alcotest.(check bool)
                  (Fmt.str "%s -A %s: %S names %S" cli g msg names)
                  true (contains ~sub:names msg))
              [
                "dpoptc.exe " ^ Filename.quote src;
                "dpoptd.exe " ^ Filename.quote src;
                "runbench.exe BFS KRON";
              ])
          [
            ( "blok",
              "unknown granularity \"blok\" (expected warp | block | \
               multiblock:<n> | grid)" );
            ("multiblock:0", "multiblock:<n> needs a positive integer");
            ("multi-block:x", "multiblock:<n> needs a positive integer");
          ];
        List.iter Sys.remove [ src; err ]);
    t "cli: runbench and bench/main.exe share one --size vocabulary"
      (fun () ->
        let bench =
          if Sys.file_exists "../bench/main.exe" then "../bench/main.exe"
          else "_build/default/bench/main.exe"
        in
        let err = Filename.temp_file "size" ".err" in
        (* exit code and stderr with spaces collapsed (cmdliner wraps) *)
        let run cmd =
          let code =
            Sys.command (Fmt.str "%s >/dev/null 2>%s" cmd (Filename.quote err))
          in
          ( code,
            In_channel.with_open_text err In_channel.input_all
            |> String.split_on_char '\n'
            |> List.concat_map (String.split_on_char ' ')
            |> List.filter (( <> ) "")
            |> String.concat " " )
        in
        let check what (code, msg) want_code want =
          Alcotest.(check int) (what ^ ": exit") want_code code;
          Alcotest.(check bool)
            (Fmt.str "%s: %S names %S" what msg want)
            true (contains ~sub:want msg)
        in
        (* an accepted size gets past parsing: runbench then asks for its
           positional arguments, bench/main.exe for a known experiment *)
        List.iter
          (fun size ->
            check ("runbench --size " ^ size)
              (run (Fmt.str "%s/runbench.exe --size %s" (bin_dir ()) size))
              2 "BENCH and DATASET are required";
            check ("bench/main.exe --size=" ^ size)
              (run (Fmt.str "%s --size=%s fig99" bench size))
              2 "unknown experiment \"fig99\"")
          [ "small"; "SMALL"; "medium"; "Medium"; "large"; "Large"; "lArGe" ];
        let unknown = "unknown size \"huge\" (small | medium | large)" in
        check "runbench --size huge"
          (run (Fmt.str "%s/runbench.exe BFS KRON --size huge" (bin_dir ())))
          124 unknown;
        check "bench/main.exe --size=huge"
          (run (Fmt.str "%s --size=huge fig9" bench))
          2 unknown;
        Sys.remove err);
    t "engine: predictions read the pass stages' reports" (fun () ->
        (* the default stream, one request at a time so the counts are
           exact: predict runs after the pass stages and reads their
           reports, and each prediction is the one the cost model makes
           on its own *)
        let stream = List.concat (Serve.Traffic.requests Serve.Traffic.default) in
        let eng = Serve.Engine.create () in
        List.iteri
          (fun i (rq : Serve.Engine.request) ->
            let expected =
              match rq.rq_profile with
              | None -> None
              | Some profile -> (
                  let prog = Minicu.Parser.program ~file:rq.rq_file rq.rq_src in
                  match
                    List.find_opt
                      (fun (f : Minicu.Ast.func) ->
                        f.f_kind = Minicu.Ast.Global
                        && Minicu.Ast_util.launch_sites f.f_body <> [])
                      prog
                  with
                  | None -> None
                  | Some parent ->
                      Some
                        (Costmodel.Model.predict Costmodel.Table.current
                           (Costmodel.Feature.extract ~prog
                              ~parent_kernel:parent.f_name ~profile
                              ~opts:rq.rq_opts ())))
            in
            match Serve.Engine.compile eng rq with
            | Error d -> Alcotest.failf "request %d rejected: %s" i d
            | Ok rs ->
                Alcotest.(check (option int64))
                  (Fmt.str "request %d (%s): prediction bits" i rs.rs_label)
                  (Option.map Int64.bits_of_float expected)
                  (Option.map Int64.bits_of_float rs.rs_predicted))
          stream;
        (* the same probes as when predict ran before the passes *)
        Alcotest.(check (list (pair string (pair int int))))
          "per-stage hits and misses"
          [
            ("dpcheck", (188, 12));
            ("parse", (188, 12));
            ("pass:aggregation", (112, 6));
            ("pass:coarsening", (35, 4));
            ("pass:thresholding", (132, 6));
            ("predict", (176, 10));
          ]
          (List.map
             (fun ((n, c) : string * Serve.Metrics.stage_counters) ->
               (n, (c.hits, c.misses)))
             (Serve.Engine.metrics eng).stages));
  ]
