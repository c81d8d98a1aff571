(** dpfuzz — differential fuzzer for the optimization passes.

    Generates random nested-parallel MiniCU programs ({!Difftest.Gen}),
    compiles each under every requested pass combination, runs all of them
    under several simulator configurations, and requires bit-identical
    device memory plus consistent launch metrics against the untransformed
    baseline ({!Difftest.Oracle}). On a counterexample, greedily shrinks it
    ({!Difftest.Shrink}) and prints the minimized MiniCU reproducer with
    its generative seed.

    {v
    dpfuzz --iters 200                      # bounded fuzz budget (CI)
    dpfuzz --iters 200 -j 4                 # same, sharded over 4 domains
    dpfuzz --seed 12345 --iters 1           # replay one reported case
    dpfuzz --passes t,c                     # restrict to two passes
    dpfuzz --iters 50 --inject-bug          # demo: a broken coarsening
                                            # variant must be caught
    dpfuzz --iters 200 --check              # also run the dpcheck
                                            # sanitizer on every variant
    dpfuzz --iters 5 --backend native       # true-parallelism oracle: also
                                            # transpile, compile and run each
                                            # supported variant as parallel
                                            # OCaml and diff its memory dump
                                            # against the simulated baseline
    v}

    With [-j N] the seed range is evaluated on a {!Harness.Pool}; the
    report stream is replayed in seed order afterwards and the lowest
    failing seed wins, so stdout is byte-identical to [-j 1].

    Exit code 0: all cases equivalent; 1: a counterexample was found
    (printed, shrunk); 2: usage error. *)

open Cmdliner

let iters =
  Arg.(
    value & opt (some int) None
    & info [ "iters" ] ~docv:"N"
        ~doc:
          "Number of random cases to check. Defaults to the DPFUZZ_ITERS \
           knob — or DPCHECK_ITERS under $(b,--check) — consolidated in \
           Harness.Env.")

let seed =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"S"
        ~doc:
          "Base seed: case $(i,i) is derived deterministically from seed \
           $(docv)+$(i,i), so any reported failure replays with \
           $(b,--seed) <reported> $(b,--iters) 1.")

let passes =
  Arg.(
    value & opt string "t,c,a"
    & info [ "passes" ] ~docv:"P"
        ~doc:
          "Comma-separated subset of $(b,t),$(b,c),$(b,a): which passes \
           participate in the variant enumeration.")

let threshold =
  Arg.(
    value & opt int 9
    & info [ "threshold" ] ~docv:"N" ~doc:"Thresholding knob under test.")

let cfactor =
  Arg.(
    value & opt int 3
    & info [ "cfactor" ] ~docv:"N" ~doc:"Coarsening knob under test.")

let configs =
  Arg.(
    value
    & opt (list string) (List.map fst Difftest.Oracle.sim_configs)
    & info [ "configs" ] ~docv:"C"
        ~doc:"Simulator configurations to replay under (unit, volta, one-sm).")

let backend =
  Arg.(
    value
    & opt (enum [ ("sim", `Sim); ("native", `Native) ]) `Sim
    & info [ "backend" ] ~docv:"B"
        ~doc:
          "Oracle backend axis: $(b,sim) (default) checks variants in the \
           simulator only; $(b,native) additionally transpiles every \
           supported variant to parallel OCaml, compiles and runs it on \
           host domains, and requires its memory dump to match the \
           simulated baseline — a true-parallelism oracle (slow: one \
           nested dune build per case; size the budget with --iters).")

let inject_bug =
  Arg.(
    value & flag
    & info [ "inject-bug" ]
        ~doc:
          "Add a deliberately broken coarsening variant (drops the \
           remainder iterations of the coarsening loop). The oracle is \
           expected to catch it: the run should exit 1 with a shrunk \
           reproducer. Combined with $(b,--check), also adds a \
           memory-neutral racy variant that only the sanitizer can catch.")

let check =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Sanitize mode: additionally require every fuzzed program and \
           every variant's output to be dpcheck-clean — no static \
           divergence/bounds errors, and no data races when replayed \
           under the dynamic race detector.")

let progress_every =
  Arg.(
    value & opt int 50
    & info [ "progress" ] ~docv:"N"
        ~doc:"Print a progress line every $(docv) cases (0: silent).")

let jobs =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Shard the seed range across $(docv) worker domains. Reports are \
           emitted in seed order once the batch settles, and the first \
           failure is the $(i,lowest) failing seed regardless of which \
           domain finished first, so stdout is byte-identical to \
           $(b,-j 1).")

let parse_passes s =
  let parts =
    String.split_on_char ',' (String.lowercase_ascii s)
    |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  let bad = List.filter (fun p -> not (List.mem p [ "t"; "c"; "a" ])) parts in
  if bad <> [] then
    Error (Fmt.str "unknown pass %S (expected a subset of t,c,a)" (List.hd bad))
  else
    Ok
      ( List.mem "t" parts,
        List.mem "c" parts,
        List.mem "a" parts )

let report_failure ~shrunk_from (case : Difftest.Gen.case)
    (f : Difftest.Oracle.failure) =
  Fmt.pr "@.=== counterexample ===@.";
  Fmt.pr "%a@." Difftest.Oracle.pp_failure f;
  (if shrunk_from > 0 then
     Fmt.pr "shrunk: %d -> %d AST+workload nodes, %d non-empty source lines@."
       shrunk_from (Difftest.Shrink.case_size case) (Difftest.Gen.source_lines case));
  Fmt.pr "workload: block=%d idiom=%d data_mod=%d degs=%a@." case.block
    case.idiom case.data_mod
    Fmt.(Dump.array int)
    case.degs;
  Fmt.pr "--- reproducer (MiniCU) ---@.%s@." (Difftest.Gen.source case);
  if case.seed >= 0 then
    Fmt.pr "replay: dpfuzz --seed %d --iters 1@." case.seed
  else
    Fmt.pr "(structurally shrunk: no longer seed-derivable; original seed \
            printed above)@."

let run iters seed passes threshold cfactor config_names backend inject_bug
    sanitize progress_every jobs =
  let native = backend = `Native in
  let iters =
    match iters with
    | Some n -> n
    | None ->
        Harness.Env.get (if sanitize then "DPCHECK_ITERS" else "DPFUZZ_ITERS")
  in
  match parse_passes passes with
  | Error msg ->
      Fmt.epr "dpfuzz: %s@." msg;
      2
  | Ok (with_thresholding, with_coarsening, with_aggregation) -> (
      let configs =
        List.filter
          (fun (name, _) -> List.mem name config_names)
          Difftest.Oracle.sim_configs
      in
      match
        List.filter
          (fun n -> not (List.mem_assoc n Difftest.Oracle.sim_configs))
          config_names
      with
      | bad :: _ ->
          Fmt.epr "dpfuzz: unknown config %S (expected: %s)@." bad
            (String.concat ", " (List.map fst Difftest.Oracle.sim_configs));
          2
      | [] ->
          let variants =
            Difftest.Oracle.default_variants ~threshold ~cfactor
              ~with_thresholding ~with_coarsening ~with_aggregation ()
            @ (if inject_bug then
                 [ Difftest.Oracle.broken_coarsening ~cfactor () ]
               else [])
            @
            if inject_bug && sanitize then [ Difftest.Oracle.racy_injection () ]
            else []
          in
          let t0 = Unix.gettimeofday () in
          (* Evaluate the seed range on the pool. [first_fail] holds the
             lowest failing index observed so far: a job may skip its case
             when a lower seed already failed — any skipped index is
             therefore strictly above the final first failure, so every
             index at or below it is fully evaluated and the replayed
             report stream below is exact. Jobs never print (pool
             contract); all reporting happens afterwards, in seed order,
             identically at every -j level. *)
          let first_fail = Atomic.make max_int in
          let eval i =
            if i > Atomic.get first_fail then None
            else
              let case = Difftest.Gen.case_of_seed (seed + i) in
              let outcome =
                Difftest.Oracle.check ~sanitize ~native ~variants ~configs case
              in
              (match outcome with
              | Fail _ ->
                  let rec lower () =
                    let cur = Atomic.get first_fail in
                    if i < cur && not (Atomic.compare_and_set first_fail cur i)
                    then lower ()
                  in
                  lower ()
              | Pass | Invalid _ -> ());
              Some (case, outcome)
          in
          let results =
            Harness.Pool.with_pool ~jobs (fun pool ->
                Harness.Pool.run pool eval iters)
          in
          let fail =
            let rec find i =
              if i >= iters then None
              else
                match results.(i) with
                | Some (case, Difftest.Oracle.Fail f) -> Some (i, case, f)
                | _ -> find (i + 1)
            in
            find 0
          in
          (* replay the report stream exactly as a sequential run emits it:
             progress on stdout, invalid-case notes on stderr, in seed
             order, stopping at the first failure *)
          let limit = match fail with Some (i, _, _) -> i | None -> iters - 1 in
          let invalid = ref 0 in
          for i = 0 to limit do
            if progress_every > 0 && i > 0 && i mod progress_every = 0 then
              Fmt.pr "... %d/%d cases checked@." i iters;
            match results.(i) with
            | Some (_, Difftest.Oracle.Invalid msg) ->
                (* a generator bug, not a compiler bug: report loudly but
                   keep fuzzing *)
                incr invalid;
                Fmt.epr "dpfuzz: seed %d generated an invalid case: %s@."
                  (seed + i) msg
            | _ -> ()
          done;
          (* host timing: stderr, so stdout stays byte-identical across
             -j levels and runs *)
          Fmt.epr "dpfuzz: %.1fs wall at -j %d@." (Unix.gettimeofday () -. t0)
            jobs;
          (match fail with
          | None ->
              Fmt.pr
                "dpfuzz: %d cases x %d variants x %d configs: all \
                 equivalent%s@."
                iters (List.length variants) (List.length configs)
                (if !invalid > 0 then
                   Fmt.str " (%d invalid cases skipped)" !invalid
                 else "");
              if !invalid > 0 then 2 else 0
          | Some (_, case, f) ->
              (* shrink against the specific failing variant + config *)
              let failing_variant =
                List.filter
                  (fun (v : Difftest.Oracle.variant) -> v.v_label = f.f_variant)
                  variants
              in
              let failing_config =
                List.filter (fun (n, _) -> n = f.f_config) configs
              in
              (* shrink under the native axis only when the failure came
                 from it — keeps shrinking fast for simulator failures *)
              let native = native && f.f_native in
              let still_fails c =
                match
                  Difftest.Oracle.check ~sanitize ~native
                    ~variants:failing_variant ~configs:failing_config c
                with
                | Fail _ -> true
                | Pass | Invalid _ -> false
              in
              let size0 = Difftest.Shrink.case_size case in
              let small = Difftest.Shrink.minimize ~still_fails case in
              let f' =
                match
                  Difftest.Oracle.check ~sanitize ~native
                    ~variants:failing_variant ~configs:failing_config small
                with
                | Fail f' -> f'
                | Pass | Invalid _ -> f (* unreachable: minimize preserves failure *)
              in
              Fmt.pr "dpfuzz: counterexample at seed %d (case %d/%d)@."
                case.seed
                (case.seed - seed + 1)
                iters;
              report_failure ~shrunk_from:size0 { small with seed = case.seed }
                f';
              1))

let cmd =
  let doc =
    "differential fuzzing of the dynamic-parallelism optimization passes"
  in
  Cmd.v
    (Cmd.info "dpfuzz" ~version:"1.0.0" ~doc)
    Term.(
      const run $ iters $ seed $ passes $ threshold $ cfactor $ configs
      $ backend $ inject_bug $ check $ progress_every $ jobs)

let () = exit (Cmd.eval' cmd)
