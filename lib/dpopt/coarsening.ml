(** The coarsening transformation in the context of dynamic parallelism
    (paper Section IV, Fig. 6).

    The child kernel gains a trailing [dim3 _gDim] parameter carrying the
    original (uncoarsened) grid dimension and a grid-stride coarsening loop:

    {v
    __global__ void child(params, dim3 _gDim) {
      for (int _bx = blockIdx.x; _bx < _gDim.x; _bx += gridDim.x) {
        ...child body with blockIdx.x -> _bx, gridDim -> _gDim...
      }
    }
    v}

    and every launch site is rewritten to divide the x grid dimension by the
    coarsening factor:

    {v
    dim3 _gDim = gDim;
    dim3 _cgDim = _gDim;
    _cgDim.x = (_gDim.x + CFACTOR - 1) / CFACTOR;
    child<<<_cgDim, bDim>>>(args, _gDim);
    v}

    As in thresholding, the per-block body is extracted into a device
    function so that [return] statements in the child body terminate one
    original block's work rather than the whole coarsened block. The
    simulator's lowering ([Gpusim.Bytecode]) inlines it again, so a
    coarsened block costs no VM call; the MiniCU keeps the call, and the
    simulated cycles keep its [call_cost]. Coarsening
    is applied to the x dimension (the paper's example; its evaluation
    kernels are 1-D). *)

open Minicu
open Minicu.Ast

type options = {
  cfactor : int;  (** The [_CFACTOR] tuning knob of Fig. 6. *)
}

type site_report = {
  sr_parent : string;
  sr_child : string;
  sr_transformed : bool;
  sr_reason : string;
}

type result = { prog : program; reports : site_report list }

let log = Logs.Src.create "dpopt.coarsening" ~doc:"coarsening pass"

module Log = (val Logs.src_log log)

(* Coarsen the child kernel: extract its body and wrap the coarsening loop.
   Returns (replacement child, extracted body function, gdim param name). *)
let coarsen_child (child : func) ~taken =
  let fresh base = Ast_util.fresh_name ~base taken in
  let body_name = fresh (child.f_name ^ "_block_body") in
  let g = fresh "_gDim" in
  let bi = fresh "_bIdx" in
  let subst = [ ("gridDim", Var g); ("blockIdx", Var bi) ] in
  let body_fn =
    {
      f_name = body_name;
      f_kind = Device;
      f_ret = TVoid;
      f_params =
        child.f_params
        @ [ { p_ty = TDim3; p_name = g }; { p_ty = TDim3; p_name = bi } ];
      f_body = Ast_util.subst_var_stmts subst child.f_body;
      f_host_followup = None;
    }
  in
  let bx = fresh "_bx" in
  let coarsening_loop =
    stmt
      (For
         ( Some (stmt (Decl (TInt, bx, Some (Member (Var "blockIdx", "x"))))),
           Some (Binop (Lt, Var bx, Member (Var g, "x"))),
           Some
             (stmt
                (Assign
                   ( Var bx,
                     Binop (Add, Var bx, Member (Var "gridDim", "x")) ))),
           [
             stmt
               (Expr_stmt
                  (Call
                     ( body_name,
                       List.map (fun p -> Var p.p_name) child.f_params
                       @ [
                           Var g;
                           Dim3_ctor
                             ( Var bx,
                               Member (Var "blockIdx", "y"),
                               Member (Var "blockIdx", "z") );
                         ] )));
           ] ))
  in
  let child' =
    {
      child with
      f_params = child.f_params @ [ { p_ty = TDim3; p_name = g } ];
      f_body = [ coarsening_loop ];
    }
  in
  (child', body_fn)

(** [transform ?opts prog] coarsens every dynamically-launched child kernel
    and rewrites all of its launch sites. *)
let transform ?(opts = { cfactor = 8 }) (prog : program) : result =
  let taken = ref (List.concat_map Ast_util.all_names prog) in
  let reports = ref [] in
  (* pass 1: find children that are launched anywhere *)
  let launched =
    List.concat_map
      (fun (f : func) ->
        List.map (fun (l : launch) -> l.l_kernel) (Ast_util.launches_of f.f_body))
      prog
    |> List.sort_uniq compare
  in
  (* pass 2: coarsen each launched child *)
  let coarsened = Hashtbl.create 4 in
  let prog =
    List.concat_map
      (fun (f : func) ->
        if List.mem f.f_name launched && f.f_kind = Global then begin
          match Eligibility.coarsening_child prog f with
          | Ineligible reason ->
              Log.info (fun m -> m "skipping child %s: %s" f.f_name reason);
              [ f ]
          | Eligible ->
              let child', body_fn = coarsen_child f ~taken:!taken in
              taken := Ast_util.all_names body_fn @ !taken;
              Hashtbl.add coarsened f.f_name ();
              [ body_fn; child' ]
        end
        else [ f ])
      prog
  in
  (* pass 3: rewrite launch sites of coarsened children *)
  let site = ref 0 in
  let transform_func (f : func) : func =
    let body =
      Ast_util.map_stmts
        ~stmt:(fun s ->
          match s.sdesc with
          | Launch l when Hashtbl.mem coarsened l.l_kernel ->
              incr site;
              reports :=
                {
                  sr_parent = f.f_name;
                  sr_child = l.l_kernel;
                  sr_transformed = true;
                  sr_reason = Fmt.str "coarsening factor %d" opts.cfactor;
                }
                :: !reports;
              let fresh base =
                let n =
                  Ast_util.fresh_name
                    ~base:(if !site = 1 then base else Fmt.str "%s_%d" base !site)
                    !taken
                in
                taken := n :: !taken;
                n
              in
              let g = fresh "_gDim" and cg = fresh "_cgDim" in
              [
                stmt (Decl (TDim3, g, Some l.l_grid));
                stmt (Decl (TDim3, cg, Some (Var g)));
                stmt
                  (Assign
                     ( Member (Var cg, "x"),
                       Binop
                         ( Div,
                           Binop
                             ( Add,
                               Member (Var g, "x"),
                               Int_lit (opts.cfactor - 1) ),
                           Int_lit opts.cfactor ) ));
                {
                  s with
                  sdesc =
                    Launch
                      {
                        l with
                        l_grid = Var cg;
                        l_args = l.l_args @ [ Var g ];
                      };
                };
              ]
          | _ -> [ s ])
        f.f_body
    in
    { f with f_body = body }
  in
  let prog = List.map transform_func prog in
  { prog; reports = List.rev !reports }
