(** The thresholding transformation (paper Section III, Fig. 3).

    Each dynamic launch [child<<<gDim, bDim>>>(args)] becomes

    {v
    int _threads = N;              // recovered by Pattern (Section III-D)
    if (_threads >= THRESHOLD) {
      child<<<gDim', bDim>>>(args);   // gDim' reuses _threads
    } else {
      child_serial(args, gDim', bDim);  // serialize in the parent thread
    }
    v}

    The serial version is constructed once per child kernel as a pair of
    device functions:

    - [<child>_serial_thread(params, _gDim, _bDim, _bIdx, _tIdx)] — the
      child body with the reserved index/dimension variables substituted by
      parameters. Extracting the per-thread body into its own function (a
      small departure from the paper's Fig. 3, which inlines it under the
      loops) makes [return] statements in the child body behave correctly
      without a goto-elimination pass. The simulator's lowering
      ([Gpusim.Bytecode]) inlines it again, so a serialized child thread
      costs no VM call; the MiniCU keeps the call, and the simulated
      cycles keep its [call_cost].
    - [<child>_serial(params, _gDim, _bDim)] — six nested loops (three
      grid dimensions, three block dimensions) invoking the thread body, as
      in Fig. 3 lines 09-15.

    Child kernels that synchronize or use shared memory are not transformed
    (Section III-C); see {!Eligibility.thresholding_child}. *)

open Minicu
open Minicu.Ast

type options = {
  threshold : int;  (** The [_THRESHOLD] tuning knob of Fig. 3. *)
}

type site_report = {
  sr_parent : string;
  sr_child : string;
  sr_transformed : bool;
  sr_reason : string;  (** Why the site was skipped, or the pattern used. *)
}

type result = { prog : program; reports : site_report list }

let log = Logs.Src.create "dpopt.thresholding" ~doc:"thresholding pass"

module Log = (val Logs.src_log log)

(* Replace the first syntactic occurrence of [needle] in [e] by [repl]. *)
let replace_first ~needle ~repl e =
  let replaced = ref false in
  let e' =
    Ast_util.map_expr
      (fun sub ->
        if (not !replaced) && equal_expr sub needle then begin
          replaced := true;
          repl
        end
        else sub)
      e
  in
  (e', !replaced)

(* Build the serial pair for [child]; returns the two new functions and the
   name of the entry point. *)
let build_serial (child : func) ~taken =
  let fresh base = Ast_util.fresh_name ~base taken in
  let thread_name = fresh (child.f_name ^ "_serial_thread") in
  let entry_name = fresh (child.f_name ^ "_serial") in
  let g = fresh "_gDim"
  and b = fresh "_bDim"
  and bi = fresh "_bIdx"
  and ti = fresh "_tIdx" in
  let subst =
    [
      ("gridDim", Var g);
      ("blockDim", Var b);
      ("blockIdx", Var bi);
      ("threadIdx", Var ti);
    ]
  in
  let thread_body = Ast_util.subst_var_stmts subst child.f_body in
  let thread_fn =
    {
      f_name = thread_name;
      f_kind = Device;
      f_ret = TVoid;
      f_params =
        child.f_params
        @ [
            { p_ty = TDim3; p_name = g };
            { p_ty = TDim3; p_name = b };
            { p_ty = TDim3; p_name = bi };
            { p_ty = TDim3; p_name = ti };
          ];
      f_body = thread_body;
      f_host_followup = None;
    }
  in
  (* the six serialization loops of Fig. 3 (lines 10-11, generalized to 3D) *)
  let loop v bound body =
    stmt
      (For
         ( Some (stmt (Decl (TInt, v, Some (Int_lit 0)))),
           Some (Binop (Lt, Var v, bound)),
           Some (stmt (Assign (Var v, Binop (Add, Var v, Int_lit 1)))),
           body ))
  in
  let bx = fresh "_bx"
  and by = fresh "_by"
  and bz = fresh "_bz"
  and tx = fresh "_tx"
  and ty = fresh "_ty"
  and tz = fresh "_tz" in
  let call =
    stmt
      (Expr_stmt
         (Call
            ( thread_name,
              List.map (fun p -> Var p.p_name) child.f_params
              @ [
                  Var g;
                  Var b;
                  Dim3_ctor (Var bx, Var by, Var bz);
                  Dim3_ctor (Var tx, Var ty, Var tz);
                ] )))
  in
  let body =
    [
      loop bz (Member (Var g, "z"))
        [
          loop by (Member (Var g, "y"))
            [
              loop bx (Member (Var g, "x"))
                [
                  loop tz (Member (Var b, "z"))
                    [
                      loop ty (Member (Var b, "y"))
                        [ loop tx (Member (Var b, "x")) [ call ] ];
                    ];
                ];
            ];
        ];
    ]
  in
  let entry_fn =
    {
      f_name = entry_name;
      f_kind = Device;
      f_ret = TVoid;
      f_params =
        child.f_params
        @ [ { p_ty = TDim3; p_name = g }; { p_ty = TDim3; p_name = b } ];
      f_body = body;
      f_host_followup = None;
    }
  in
  (thread_fn, entry_fn, entry_name)

(** [transform ?opts prog] applies thresholding to every launch site whose
    child kernel is eligible. Idempotent on programs without launches. *)
let transform ?(opts = { threshold = 32 }) (prog : program) : result =
  let taken = ref (List.concat_map Ast_util.all_names prog) in
  let reports = ref [] in
  let report parent child transformed reason =
    reports :=
      {
        sr_parent = parent;
        sr_child = child;
        sr_transformed = transformed;
        sr_reason = reason;
      }
      :: !reports
  in
  (* serial versions already built in this run: child name -> entry name *)
  let serials = Hashtbl.create 4 in
  let new_funcs = ref [] in
  let transform_func (f : func) : func =
    if f.f_kind <> Global then f
    else
      let site_counter = ref 0 in
      let body =
        Ast_util.map_stmts
          ~stmt:(fun s ->
            match s.sdesc with
            | Launch l -> (
                incr site_counter;
                match find_func prog l.l_kernel with
                | None -> [ s ]
                | Some child -> (
                    match Eligibility.thresholding_child prog child with
                    | Ineligible reason ->
                        Log.info (fun m ->
                            m "skipping %s -> %s: %s" f.f_name child.f_name
                              reason);
                        report f.f_name child.f_name false reason;
                        [ s ]
                    | Eligible ->
                        let serial_name =
                          match Hashtbl.find_opt serials child.f_name with
                          | Some n -> n
                          | None ->
                              let tfn, efn, name =
                                build_serial child ~taken:!taken
                              in
                              taken :=
                                (name :: tfn.f_name :: !taken)
                                @ Ast_util.all_names tfn;
                              Hashtbl.add serials child.f_name name;
                              new_funcs :=
                                (child.f_name, [ tfn; efn ]) :: !new_funcs;
                              name
                        in
                        let n_expr, kind =
                          Pattern.threads_expr ~parent_body:f.f_body
                            ~grid:l.l_grid ~block:l.l_block
                        in
                        report f.f_name child.f_name true
                          (match kind with
                          | `Exact -> "ceiling-division pattern recovered"
                          | `Fallback -> "fallback: grid*block total");
                        let tvar =
                          Ast_util.fresh_name
                            ~base:
                              (if !site_counter = 1 then "_threads"
                               else Fmt.str "_threads_%d" !site_counter)
                            !taken
                        in
                        taken := tvar :: !taken;
                        (* replace the occurrence of N inside gDim so a
                           side-effecting expression is not duplicated
                           (Section III-D, last paragraph) *)
                        let grid', _found =
                          replace_first ~needle:n_expr ~repl:(Var tvar)
                            l.l_grid
                        in
                        let serial_call =
                          stmt
                            (Expr_stmt
                               (Call
                                  ( serial_name,
                                    l.l_args @ [ grid'; l.l_block ] )))
                        in
                        [
                          stmt (Decl (TInt, tvar, Some n_expr));
                          stmt
                            (If
                               ( Binop (Ge, Var tvar, Int_lit opts.threshold),
                                 [ { s with sdesc = Launch { l with l_grid = grid' } } ],
                                 [ serial_call ] ));
                        ]))
            | _ -> [ s ])
          f.f_body
      in
      { f with f_body = body }
  in
  let prog' = List.map transform_func prog in
  (* insert the generated serial functions right after their child kernel *)
  let prog' =
    List.fold_left
      (fun acc (anchor, fns) ->
        List.fold_left
          (fun acc fn -> Ast.add_func_after acc ~anchor fn)
          acc (List.rev fns))
      prog' !new_funcs
  in
  { prog = prog'; reports = List.rev !reports }
