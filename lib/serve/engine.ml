(* See the interface for the stage/key scheme. The single LRU holds all
   stage kinds behind one variant, so the byte budget is shared and hot
   stages naturally displace cold ones. Sizes are accounting heuristics
   (canonical text length with a factor for the AST), not exact RSS. *)

type entry =
  | Parsed of { ast : Minicu.Ast.program; canon : string; text : string }
  | Staged of { out : Dpopt.Pipeline.stage_output; canon : string; text : string }
  | Checked of string list
  | Predicted of float option

type request = {
  rq_file : string;
  rq_src : string;
  rq_opts : Dpopt.Pipeline.options;
  rq_profile : Costmodel.Profile.t option;
}

type response = {
  rs_label : string;
  rs_optimized : string;
  rs_diags : string list;
  rs_predicted : float option;
}

type t = { cache : entry Lru.t; meter : Metrics.t }

let create () =
  {
    cache = Lru.create ~bytes:(64 * 1024 * 1024) ();
    meter = Metrics.create ();
  }

let metrics t = Metrics.snapshot t.meter
let cache_stats t = Lru.stats t.cache

(* One probe-or-compute round trip: the only place hits/misses and
   insertions happen, so the counters cannot drift from the cache. *)
let memo t ~stage ~key ~size compute =
  match Lru.find t.cache key with
  | Some v ->
      Metrics.lookup t.meter ~stage ~hit:true;
      v
  | None ->
      Metrics.lookup t.meter ~stage ~hit:false;
      let v = compute () in
      Lru.add t.cache ~key ~size:(size v) v;
      v

let entry_size = function
  | Parsed { text; _ } -> 256 + (4 * String.length text)
  | Staged { text; _ } -> 256 + (5 * String.length text)
  | Checked diags ->
      List.fold_left (fun n d -> n + String.length d) 64 diags
  | Predicted _ -> 64

(* Stage keys. The parse (and dpcheck) key covers the file label because
   the cached values embed it in locations; see the interface. [compile]
   digests the source once for both, and joins label and source in one
   allocation. *)
let src_key ~file ~src =
  Digest.to_hex (Digest.string (String.concat "\x00" [ file; src ]))

let parse_stage t ~file ~src ~src_key =
  let key = Key.stage ~tag:"parse" [ src_key ] in
  match
    memo t ~stage:"parse" ~key ~size:entry_size (fun () ->
        let ast = Minicu.Parser.program ~file src in
        Minicu.Typecheck.check ast;
        let text = Minicu.Pretty.program ast in
        Parsed { ast; canon = Digest.to_hex (Digest.string text); text })
  with
  | Parsed { ast; canon; text } -> (ast, canon, text)
  | _ -> assert false (* tags keep stage key spaces disjoint *)

let pass_stage t ~canon_in (st : Dpopt.Pipeline.stage) prog =
  let key =
    Key.stage ~tag:"pass" [ canon_in; st.st_name; st.st_fingerprint ]
  in
  match
    memo t ~stage:("pass:" ^ st.st_name) ~key ~size:entry_size (fun () ->
        let out = st.st_apply prog in
        let text = Minicu.Pretty.program out.so_prog in
        Staged { out; canon = Digest.to_hex (Digest.string text); text })
  with
  | Staged { out; canon; text } -> (out, canon, text)
  | _ -> assert false

let dpcheck_stage t ~src_key ast =
  let key = Key.stage ~tag:"dpcheck" [ src_key ] in
  match
    memo t ~stage:"dpcheck" ~key ~size:entry_size (fun () ->
        Checked
          (List.map
             (Fmt.str "%a" Analysis.Static.pp_diag)
             (Analysis.Static.check_program ast)))
  with
  | Checked diags -> diags
  | _ -> assert false

(* [pipeline] is the pass stages' fold over [ast]: the cost model reads
   their eligibility reports instead of running the passes again. *)
let predict_stage t ~canon ~fingerprint ast opts pipeline profile =
  let key = Key.stage ~tag:"predict" [ canon; fingerprint; Key.profile profile ] in
  match
    memo t ~stage:"predict" ~key ~size:entry_size (fun () ->
        Predicted
          (match
             List.find_opt
               (fun (f : Minicu.Ast.func) ->
                 f.f_kind = Minicu.Ast.Global
                 && Minicu.Ast_util.launch_sites f.f_body <> [])
               ast
           with
          | None -> None
          | Some parent ->
              let f =
                Costmodel.Feature.extract ~prog:ast
                  ~parent_kernel:parent.f_name ~profile ~opts ~pipeline ()
              in
              Some (Costmodel.Model.predict Costmodel.Table.current f)))
  with
  | Predicted p -> p
  | _ -> assert false

let compile t rq =
  let t0 = Unix.gettimeofday () in
  let r =
    Errors.guard ~file:rq.rq_file (fun () ->
        let src_key = src_key ~file:rq.rq_file ~src:rq.rq_src in
        let ast, canon0, text0 =
          parse_stage t ~file:rq.rq_file ~src:rq.rq_src ~src_key
        in
        let diags = dpcheck_stage t ~src_key ast in
        let stages = Dpopt.Pipeline.stages rq.rq_opts in
        let pipeline, _, optimized =
          List.fold_left
            (fun (r, canon, _) st ->
              let out, canon', text =
                pass_stage t ~canon_in:canon st r.Dpopt.Pipeline.prog
              in
              (Dpopt.Pipeline.absorb r out, canon', text))
            (Dpopt.Pipeline.init ast, canon0, text0)
            stages
        in
        let predicted =
          match rq.rq_profile with
          | None -> None
          | Some p ->
              predict_stage t ~canon:canon0
                ~fingerprint:(Dpopt.Pipeline.fingerprint_of_stages stages)
                ast rq.rq_opts pipeline p
        in
        {
          rs_label = Dpopt.Pipeline.label rq.rq_opts;
          rs_optimized = optimized;
          rs_diags = diags;
          rs_predicted = predicted;
        })
  in
  Metrics.latency t.meter (Unix.gettimeofday () -. t0);
  r

let compile_batch ?pool t rqs =
  let rqs = Array.of_list rqs in
  let job i = compile t rqs.(i) in
  match pool with
  | Some p -> Array.to_list (Harness.Pool.run p job (Array.length rqs))
  | None -> List.init (Array.length rqs) job
