(** The compile-stream workload: one client sends [Serve.Traffic]'s
    zipf-distributed request stream to one [Serve.Engine] in a closed
    loop — each distinct request once against a fresh engine (cold), then
    the whole stream (warm). *)

module Engine = Serve.Engine

let render = function
  | Error d -> "error " ^ d
  | Ok (rs : Engine.response) ->
      Printf.sprintf "label=%s out=%s diags=%d:%s pred=%s" rs.rs_label
        (Digest.to_hex (Digest.string rs.rs_optimized))
        (List.length rs.rs_diags)
        (Digest.to_hex (Digest.string (String.concat "\n" rs.rs_diags)))
        (match rs.rs_predicted with None -> "-" | Some p -> Printf.sprintf "%h" p)

(* The engine's stage computations, made again from outside through the
   same public calls, one span each. Returns each stage's cost in
   seconds, with the engine's name for the stage. *)
let shadow (rq : Engine.request) =
  let timed name f =
    let t0 = Span.now () in
    let v = Span.with_ name f in
    (v, Span.now () -. t0)
  in
  let ast, t_parse =
    timed "minicu.parse" (fun () -> Minicu.Parser.program ~file:rq.rq_file rq.rq_src)
  in
  Span.count "minicu.nodes" (float_of_int (Minicu.Ast_util.program_size ast));
  let (), t_check = timed "minicu.typecheck" (fun () -> Minicu.Typecheck.check ast) in
  let _, t_pretty = timed "minicu.pretty" (fun () -> Minicu.Pretty.program ast) in
  let _, t_dpcheck =
    timed "analysis.dpcheck" (fun () ->
        List.map (Fmt.str "%a" Analysis.Static.pp_diag)
          (Analysis.Static.check_program ast))
  in
  let predict =
    match rq.rq_profile with
    | None -> []
    | Some profile ->
        let _, t =
          timed "costmodel.predict" (fun () ->
              List.find_opt
                (fun (f : Minicu.Ast.func) ->
                  f.f_kind = Minicu.Ast.Global
                  && Minicu.Ast_util.launch_sites f.f_body <> [])
                ast
              |> Option.map (fun (parent : Minicu.Ast.func) ->
                     Costmodel.Model.predict Costmodel.Table.current
                       (Costmodel.Feature.extract ~prog:ast
                          ~parent_kernel:parent.f_name ~profile ~opts:rq.rq_opts
                          ())))
        in
        [ ("predict", t) ]
  in
  let _, passes =
    List.fold_left
      (fun (prog, acc) (st : Dpopt.Pipeline.stage) ->
        let out, t_pass = timed ("dpopt." ^ st.st_name) (fun () -> st.st_apply prog) in
        let sites =
          match out.so_report with
          | Threshold_reports r -> List.length r
          | Coarsen_reports r -> List.length r
          | Agg_reports r -> List.length r
        in
        Span.count "dpopt.sites" (float_of_int sites);
        let _, t_text = timed "minicu.pretty" (fun () -> Minicu.Pretty.program out.so_prog) in
        (out.so_prog, ("pass:" ^ st.st_name, t_pass +. t_text) :: acc))
      (ast, []) (Dpopt.Pipeline.stages rq.rq_opts)
  in
  (("parse", t_parse +. t_check +. t_pretty) :: ("dpcheck", t_dpcheck) :: predict)
  @ passes

type prepared = {
  catalog : Engine.request array;  (** Distinct requests, first seen first. *)
  stream : int array;  (** The stream, as indices into [catalog]. *)
  digests : (string * string) list;
}

let setup ~seed ~distinct ~zipf ~requests =
  let rqs =
    Span.with_ "serve.traffic" (fun () -> Inputs.traffic ~seed ~distinct ~zipf requests)
  in
  let index = Hashtbl.create distinct and firsts = ref [] in
  let stream =
    Array.of_list
      (List.map
         (fun rq ->
           let d = Inputs.request_digest rq in
           match Hashtbl.find_opt index d with
           | Some i -> i
           | None ->
               let i = Hashtbl.length index in
               Hashtbl.add index d i;
               firsts := (d, rq) :: !firsts;
               i)
         rqs)
  in
  let firsts = List.rev !firsts in
  let digest_of l = Digest.to_hex (Digest.string (String.concat "," l)) in
  {
    catalog = Array.of_list (List.map snd firsts);
    stream;
    digests =
      [
        ("requests", digest_of (List.map fst firsts));
        ("stream", digest_of (Array.to_list (Array.map string_of_int stream)));
      ];
  }

(* Young-heap words allocated before the warm pass, per process index. A
   warm request takes about 20 us and a minor collection lands on about
   one in 130 of them, at the same requests in every process, since the
   run is deterministic; that put warm_p99_ms right at the edge of the
   collections' share of the stream, so it jumped between seeds. Shifting
   each process's collections to other requests lets the per-request
   median over the processes report a request's own latency; the
   collections' cost stays in wall_s. *)
let gc_stagger_words = 50_000

(** Run the cold pass (each distinct request once, in order of first
    appearance), then replay the whole stream [rounds] times (warm). A
    warm response must equal the cold one; it is rendered (digested) only
    once. [process] is the index of this process in its run. *)
let measure ~rounds ~process (r : Record.t) p =
  let eng = Engine.create () in
  let n = Array.length p.catalog in
  let cold = Array.make n (Error "not sent") in
  let rendered = Array.make n "" in
  let serve_self = ref 0.0 in
  let send ~warm i =
    let rq = p.catalog.(i) in
    let inserted () = (Engine.cache_stats eng).insertions in
    let before = if !Span.on && not warm then inserted () else 0 in
    let t0 = Span.now () in
    let res =
      Span.with_ "harness.request" ~req:i (fun () ->
          Span.with_ "serve.compile" (fun () -> Engine.compile eng rq))
    in
    let dt = Span.now () -. t0 in
    let ok =
      match res with
      | Error _ -> false
      | Ok _ -> (not warm) || res = cold.(i)
    in
    if not warm then begin
      cold.(i) <- res;
      rendered.(i) <- render res
    end;
    let output = if ok || not warm then rendered.(i) else render res in
    Record.op r ~key:(Printf.sprintf "req%d" i) ~output ~ok ~latency:dt ~warm;
    if !Span.on then
      if warm then serve_self := !serve_self +. dt
      else begin
        (* the engine's own time: its wall time minus the stage work it
           had to compute, costed by the shadow calls. Each stage it
           computed is one cache insertion; when only some of the stages
           were computed, they are charged their share of the cost. *)
        let computed = inserted () - before in
        let costs = Span.with_ "harness.shadow" ~req:i (fun () -> shadow rq) in
        let work = List.fold_left (fun acc (_, t) -> acc +. t) 0.0 costs in
        let share = float_of_int computed /. float_of_int (List.length costs) in
        serve_self := !serve_self +. dt -. (work *. Float.min 1.0 share)
      end
  in
  for i = 0 to n - 1 do
    send ~warm:false i
  done;
  let mid = Engine.metrics eng in
  for _ = 1 to process * gc_stagger_words / 2 do
    ignore (Sys.opaque_identity (ref 0))
  done;
  for _ = 1 to rounds do
    Array.iter (send ~warm:true) p.stream
  done;
  let s = Engine.metrics eng and c = Engine.cache_stats eng in
  let lookups (s : Serve.Metrics.snapshot) =
    List.fold_left
      (fun (h, l) (_, (c : Serve.Metrics.stage_counters)) ->
        (h + c.hits, l + c.hits + c.misses))
      (0, 0) s.stages
  in
  let h0, l0 = lookups mid and h1, l1 = lookups s in
  Span.count "serve.self_s" !serve_self;
  Span.count "serve.hit_rate"
    (if l1 > l0 then float_of_int (h1 - h0) /. float_of_int (l1 - l0) else 0.0);
  Span.count "serve.cache_bytes" (float_of_int c.bytes);
  Span.count "serve.evictions" (float_of_int c.evictions)
