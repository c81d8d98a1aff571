(** The aggregation transformation (paper Section V, Fig. 7), at four
    granularities: warp, block, multi-block (the paper's new contribution),
    and grid.

    For a launch site [child<<<g, b>>>(args)] in a parent kernel, the pass:

    - creates an {e aggregated child kernel} [child_agg] whose blocks find
      their original parent by binary search in a scanned grid-dimension
      array, then load that parent's arguments and configuration
      (the disaggregation logic, Fig. 7 lines 01-11);
    - replaces the launch with {e capture} code that assigns the parent
      thread an index and records its arguments and configuration in a
      pre-allocated buffer (Fig. 7 lines 14-24);
    - inserts an {e epilogue} at the parent's block-uniform join point that
      elects one launcher for the whole group and performs the single
      aggregated launch (Fig. 7 lines 26-35).

    Granularity differences:

    - {b warp}: capture saves per-thread locals; the epilogue uses warp
      collectives (scan/sum/max) to build the scanned array and elects the
      first participating lane. Optional aggregation threshold (Section
      V-B): if fewer than [T] lanes participate, each launches directly.
    - {b block}: counters live in shared memory; [__syncthreads] is the
      group barrier; thread 0 launches. Optional aggregation threshold.
    - {b multi-block} (new in the paper): counters live in global memory,
      indexed by block group; the scan is built with adjacent atomic adds
      (standing in for the paper's single 64-bit packed atomic); a
      [__threadfence] publishes the capture before a group-wide
      finished-blocks counter elects the last block to launch.
    - {b grid}: capture is global as in multi-block, but the aggregated
      launch is performed from the host after the parent grid drains
      (MiniCU host-followup), matching the paper's observation that grid
      granularity needs CPU involvement.

    The generated buffers are appended to the parent's parameter list and
    allocated by the runtime at launch ({!auto_param}), so host drivers keep
    launching the parent with its original arguments.

    Restriction: aggregation flattens the x dimension only (all the paper's
    evaluation kernels are 1-D). *)

open Minicu
open Minicu.Ast

type granularity = Warp | Block | Multi_block of int | Grid

let granularity_to_string = function
  | Warp -> "warp"
  | Block -> "block"
  | Multi_block g -> "multi-block(" ^ string_of_int g ^ ")"
  | Grid -> "grid"

let pp_granularity ppf g = Fmt.string ppf (granularity_to_string g)

let granularity_of_string s =
  match String.lowercase_ascii s with
  | "warp" -> Ok Warp
  | "block" -> Ok Block
  | "grid" -> Ok Grid
  | s -> (
      match String.index_opt s ':' with
      | Some i
        when String.sub s 0 i = "multiblock"
             || String.sub s 0 i = "multi-block" -> (
          let g = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt g with
          | Some g when g > 0 -> Ok (Multi_block g)
          | _ -> Error (`Msg "multiblock:<n> needs a positive integer"))
      | _ ->
          Error
            (`Msg
               (Fmt.str
                  "unknown granularity %S (expected warp | block | \
                   multiblock:<n> | grid)"
                  s)))

type options = {
  granularity : granularity;
  agg_threshold : int option;
      (** Section V-B: minimum number of participating parents for the
          aggregated launch to be worthwhile; below it, parents launch
          directly. Only meaningful at warp and block granularity, where the
          participant count is available before launching. *)
}

let default_options = { granularity = Block; agg_threshold = None }

(** Runtime-allocated trailing parameter of a transformed parent kernel.
    [ap_elems] computes the element count from the actual launch
    configuration. *)
type auto_param = {
  ap_name : string;
  ap_elems : grid_blocks:int -> block_threads:int -> int;
}

type site_report = {
  sr_parent : string;
  sr_child : string;
  sr_transformed : bool;
  sr_reason : string;
}

type result = {
  prog : program;
  auto_params : (string * auto_param list) list;
      (** Parent kernel name -> trailing parameters, in signature order. *)
  reports : site_report list;
}

let log = Logs.Src.create "dpopt.aggregation" ~doc:"aggregation pass"

module Log = (val Logs.src_log log)

(* ---------- small AST builders ---------- *)

let t_agg s = retag_deep Tag_agg s
let decl ty x e = stmt (Decl (ty, x, Some e))
let decl_int x e = decl TInt x e
let assign lv e = stmt (Assign (lv, e))
let sif c a b = stmt (If (c, a, b))
let expr_s e = stmt (Expr_stmt e)
let ( @: ) p i = Index (Var p, i)
let addr e = Addr_of e
let i0 = Int_lit 0
let i1 = Int_lit 1
let tid_x = Member (Var "threadIdx", "x")
let bid_x = Member (Var "blockIdx", "x")
let bdim_x = Member (Var "blockDim", "x")
let gdim_x = Member (Var "gridDim", "x")

(* ---------- disaggregation: the aggregated child kernel ---------- *)

(** Build [child_agg] from [child] (Fig. 7 lines 01-11). *)
let build_agg_child (child : func) ~taken =
  let fresh base = Ast_util.fresh_name ~base taken in
  let agg_name = fresh (child.f_name ^ "_agg") in
  let arr_params =
    List.map
      (fun p -> { p_ty = TPtr p.p_ty; p_name = "_arr_" ^ p.p_name })
      child.f_params
  in
  let scan = "_gDimScanned" and bdim_arr = "_bDimArr" and npar = "_numParents" in
  let lo = "_lo" and hi = "_hi" and mid = "_mid" in
  let pidx = "_parentIdx" and prev = "_prevScan" in
  let my_gdim = "_myGDim" and my_bx = "_myBx" and my_bdim = "_myBDim" in
  (* binary search for the first index whose inclusive scan exceeds our
     block id (Fig. 7 line 02) *)
  let search =
    [
      decl_int lo i0;
      decl_int hi (Binop (Sub, Var npar, i1));
      stmt
        (While
           ( Binop (Lt, Var lo, Var hi),
             [
               decl_int mid (Binop (Div, Binop (Add, Var lo, Var hi), Int_lit 2));
               sif
                 (Binop (Gt, scan @: Var mid, bid_x))
                 [ assign (Var hi) (Var mid) ]
                 [ assign (Var lo) (Binop (Add, Var mid, i1)) ];
             ] ));
      decl_int pidx (Var lo);
      decl_int prev
        (Ternary
           ( Binop (Eq, Var pidx, i0),
             i0,
             scan @: Binop (Sub, Var pidx, i1) ));
      decl_int my_gdim (Binop (Sub, scan @: Var pidx, Var prev));
      decl_int my_bx (Binop (Sub, bid_x, Var prev));
      decl_int my_bdim (bdim_arr @: Var pidx);
    ]
  in
  (* reload the original arguments under their original names so the child
     body runs unchanged (Fig. 7 lines 03-06) *)
  let reload =
    List.map
      (fun p -> decl p.p_ty p.p_name (("_arr_" ^ p.p_name) @: Var pidx))
      child.f_params
  in
  let subst =
    [
      ("blockIdx", Dim3_ctor (Var my_bx, i0, i0));
      ("gridDim", Dim3_ctor (Var my_gdim, i1, i1));
      ("blockDim", Dim3_ctor (Var my_bdim, i1, i1));
    ]
  in
  let body = Ast_util.subst_var_stmts subst child.f_body in
  (* extra threads (the aggregated block is as wide as the widest child
     block) are masked off, Fig. 7 line 07 *)
  let guarded = sif (Binop (Lt, tid_x, Var my_bdim)) body [] in
  let agg =
    {
      f_name = agg_name;
      f_kind = Global;
      f_ret = TVoid;
      f_params =
        arr_params
        @ [
            { p_ty = TPtr TInt; p_name = scan };
            { p_ty = TPtr TInt; p_name = bdim_arr };
            { p_ty = TInt; p_name = npar };
          ];
      f_body =
        List.map (retag_deep Tag_disagg) (search @ reload)
        @ [ { guarded with stag = Tag_disagg } ];
      f_host_followup = None;
    }
  in
  (agg, agg_name)

(* ---------- capture + epilogue codegen ---------- *)

(* Everything generated for one launch site. *)
type site_code = {
  sc_top_decls : stmt list;  (** Prepended to the parent body. *)
  sc_capture : stmt list;  (** Replaces the launch statement. *)
  sc_tail : stmt list;  (** Inserted at the block-uniform join point. *)
  sc_params : param list;  (** Appended to the parent signature. *)
  sc_auto : auto_param list;  (** Allocation specs, same order. *)
  sc_followup : stmt list;  (** Host followup (grid granularity only). *)
}

let warps_per_block ~block_threads = (block_threads + 31) / 32

(* name mangling for site [k] *)
let mangle k base = Fmt.str "_agg%d%s" k base

let buffer_params k (child : func) ~with_counters ~with_nfin =
  let m = mangle k in
  let arrs =
    List.map
      (fun p -> { p_ty = TPtr p.p_ty; p_name = m ("_a_" ^ p.p_name) })
      child.f_params
  in
  let base =
    arrs
    @ [
        { p_ty = TPtr TInt; p_name = m "_scan" };
        { p_ty = TPtr TInt; p_name = m "_bdim" };
      ]
  in
  let counters =
    if with_counters then
      [
        { p_ty = TPtr TInt; p_name = m "_nPar" };
        { p_ty = TPtr TInt; p_name = m "_sumG" };
        { p_ty = TPtr TInt; p_name = m "_maxB" };
      ]
    else []
  in
  let nfin =
    if with_nfin then [ { p_ty = TPtr TInt; p_name = m "_nFin" } ] else []
  in
  base @ counters @ nfin

(* Allocation specs matching [buffer_params]. [groups]/[cap] compute the
   group count and per-group parent capacity from the launch config. *)
let buffer_auto k (child : func) ~with_counters ~with_nfin ~groups ~cap =
  let m = mangle k in
  let seg ~grid_blocks ~block_threads =
    groups ~grid_blocks ~block_threads * cap ~grid_blocks ~block_threads
  in
  let arrs =
    List.map
      (fun (p : param) -> { ap_name = m ("_a_" ^ p.p_name); ap_elems = seg })
      child.f_params
  in
  let base =
    arrs
    @ [
        { ap_name = m "_scan"; ap_elems = seg };
        { ap_name = m "_bdim"; ap_elems = seg };
      ]
  in
  let counters =
    if with_counters then
      List.map
        (fun n -> { ap_name = m n; ap_elems = (fun ~grid_blocks ~block_threads -> groups ~grid_blocks ~block_threads) })
        [ "_nPar"; "_sumG"; "_maxB" ]
    else []
  in
  let nfin =
    if with_nfin then
      [ { ap_name = m "_nFin"; ap_elems = (fun ~grid_blocks ~block_threads -> groups ~grid_blocks ~block_threads) } ]
    else []
  in
  base @ counters @ nfin

(* Store one parent's arguments and scanned configuration at
   [base + pidx] (Fig. 7 lines 21-23). [args] are the launch's actual
   argument expressions. *)
let capture_stores k (child : func) ~base_e ~pidx_e ~prev_e ~gdx_e ~bdx_e
    ~(args : expr list) =
  let m = mangle k in
  List.map2
    (fun (p : param) arg ->
      assign (Index (Var (m ("_a_" ^ p.p_name)), Binop (Add, base_e, pidx_e))) arg)
    child.f_params args
  @ [
      assign
        (Index (Var (m "_scan"), Binop (Add, base_e, pidx_e)))
        (Binop (Add, prev_e, gdx_e));
      assign (Index (Var (m "_bdim"), Binop (Add, base_e, pidx_e))) bdx_e;
    ]

(* The aggregated launch expression for a group segment starting at
   [seg_e] with [total]/[maxb]/[count]. *)
let agg_launch k (child : func) ~agg_name ~seg_e ~total_e ~maxb_e ~count_e =
  let m = mangle k in
  let arr_args =
    List.map
      (fun (p : param) -> Binop (Add, Var (m ("_a_" ^ p.p_name)), seg_e))
      child.f_params
  in
  stmt
    (Launch
       {
         l_kernel = agg_name;
         l_grid = total_e;
         l_block = maxb_e;
         l_args =
           arr_args
           @ [
               Binop (Add, Var (m "_scan"), seg_e);
               Binop (Add, Var (m "_bdim"), seg_e);
               count_e;
             ];
       })

(* fresh names local to a site *)
let site_fresh k taken base =
  let n = Ast_util.fresh_name ~base:(mangle k base) !taken in
  taken := n :: !taken;
  n

(* ---- grid granularity ---- *)

let gen_grid k (child : func) ~agg_name ~(l : launch) ~taken =
  let m = mangle k in
  let f = site_fresh k taken in
  let gd = f "_gd" and bd = f "_bd" in
  let gdx = f "_gdx" and bdx = f "_bdx" in
  let pidx = f "_pidx" and prev = f "_prev" in
  let capture =
    [
      decl TDim3 gd l.l_grid;
      decl TDim3 bd l.l_block;
      decl_int gdx (Member (Var gd, "x"));
      decl_int bdx (Member (Var bd, "x"));
      decl_int pidx (Call ("atomicAdd", [ addr (m "_nPar" @: i0); i1 ]));
      decl_int prev (Call ("atomicAdd", [ addr (m "_sumG" @: i0); Var gdx ]));
    ]
    @ capture_stores k child ~base_e:i0 ~pidx_e:(Var pidx) ~prev_e:(Var prev)
        ~gdx_e:(Var gdx) ~bdx_e:(Var bdx) ~args:l.l_args
    @ [ expr_s (Call ("atomicMax", [ addr (m "_maxB" @: i0); Var bdx ])) ]
  in
  let followup =
    [
      sif
        (Binop (Gt, m "_nPar" @: i0, i0))
        [
          agg_launch k child ~agg_name ~seg_e:i0 ~total_e:(m "_sumG" @: i0)
            ~maxb_e:(m "_maxB" @: i0) ~count_e:(m "_nPar" @: i0);
        ]
        [];
    ]
  in
  {
    sc_top_decls = [];
    sc_capture = List.map t_agg capture;
    sc_tail = [];
    sc_params = buffer_params k child ~with_counters:true ~with_nfin:false;
    sc_auto =
      buffer_auto k child ~with_counters:true ~with_nfin:false
        ~groups:(fun ~grid_blocks:_ ~block_threads:_ -> 1)
        ~cap:(fun ~grid_blocks ~block_threads -> grid_blocks * block_threads);
    sc_followup = followup;
  }

(* ---- multi-block granularity ---- *)

let gen_multi_block k g (child : func) ~agg_name ~(l : launch) ~taken =
  let m = mangle k in
  let f = site_fresh k taken in
  let gd = f "_gd" and bd = f "_bd" in
  let gdx = f "_gdx" and bdx = f "_bdx" in
  let grp = f "_grp" and base = f "_base" in
  let pidx = f "_pidx" and prev = f "_prev" in
  let cap_e = Binop (Mul, Int_lit g, bdim_x) in
  let capture =
    [
      decl TDim3 gd l.l_grid;
      decl TDim3 bd l.l_block;
      decl_int gdx (Member (Var gd, "x"));
      decl_int bdx (Member (Var bd, "x"));
      decl_int grp (Binop (Div, bid_x, Int_lit g));
      decl_int base (Binop (Mul, Var grp, cap_e));
      (* two adjacent atomics model the paper's packed 64-bit atomic pair
         (Fig. 7 lines 19-20); the simulator executes a thread's
         consecutive atomics without interleaving, so the scanned array
         stays consistent *)
      decl_int pidx (Call ("atomicAdd", [ addr (m "_nPar" @: Var grp); i1 ]));
      decl_int prev
        (Call ("atomicAdd", [ addr (m "_sumG" @: Var grp); Var gdx ]));
    ]
    @ capture_stores k child ~base_e:(Var base) ~pidx_e:(Var pidx)
        ~prev_e:(Var prev) ~gdx_e:(Var gdx) ~bdx_e:(Var bdx) ~args:l.l_args
    @ [ expr_s (Call ("atomicMax", [ addr (m "_maxB" @: Var grp); Var bdx ])) ]
  in
  let grp2 = f "_grpT" and nfin = f "_nfin" in
  let ingrp = f "_inGrp" and tot = f "_tot" in
  let tail =
    [
      (* publish this block's captures before signalling (Fig. 7 line 26) *)
      stmt Threadfence;
      stmt Sync;
      sif
        (Binop (Eq, tid_x, i0))
        [
          decl_int grp2 (Binop (Div, bid_x, Int_lit g));
          decl_int nfin
            (Binop
               ( Add,
                 Call ("atomicAdd", [ addr (m "_nFin" @: Var grp2); i1 ]),
                 i1 ));
          (* the trailing group may have fewer than [g] blocks *)
          decl_int ingrp
            (Call
               ( "min",
                 [
                   Int_lit g; Binop (Sub, gdim_x, Binop (Mul, Var grp2, Int_lit g));
                 ] ));
          sif
            (Binop (Eq, Var nfin, Var ingrp))
            [
              decl_int tot (m "_sumG" @: Var grp2);
              sif
                (Binop (Gt, Var tot, i0))
                [
                  agg_launch k child ~agg_name
                    ~seg_e:(Binop (Mul, Var grp2, cap_e))
                    ~total_e:(Var tot)
                    ~maxb_e:(m "_maxB" @: Var grp2)
                    ~count_e:(m "_nPar" @: Var grp2);
                ]
                [];
            ]
            [];
        ]
        [];
    ]
  in
  {
    sc_top_decls = [];
    sc_capture = List.map t_agg capture;
    sc_tail = List.map t_agg tail;
    sc_params = buffer_params k child ~with_counters:true ~with_nfin:true;
    sc_auto =
      buffer_auto k child ~with_counters:true ~with_nfin:true
        ~groups:(fun ~grid_blocks ~block_threads:_ -> (grid_blocks + g - 1) / g)
        ~cap:(fun ~grid_blocks:_ ~block_threads -> g * block_threads);
    sc_followup = [];
  }

(* ---- block granularity ---- *)

let gen_block k (child : func) ~agg_name ~(l : launch) ~agg_threshold ~taken =
  let f = site_fresh k taken in
  let sh = f "_sh" in
  let my_g = f "_myG" and my_b = f "_myB" in
  let my_args = List.map (fun p -> (p, f ("_my_" ^ p.p_name))) child.f_params in
  let pidx = f "_pidx" and prev = f "_prev" and base = f "_base" in
  let top =
    [
      stmt (Decl_shared (TInt, sh, Int_lit 3));
      sif
        (Binop (Eq, tid_x, i0))
        [ assign (sh @: i0) i0; assign (sh @: i1) i0; assign (sh @: Int_lit 2) i0 ]
        [];
      stmt Sync;
      decl_int my_g i0;
      decl_int my_b i0;
    ]
    @ List.map (fun ((p : param), n) -> stmt (Decl (p.p_ty, n, None))) my_args
  in
  let gd = f "_gd" and bd = f "_bd" in
  let capture =
    [
      decl TDim3 gd l.l_grid;
      decl TDim3 bd l.l_block;
      assign (Var my_g) (Member (Var gd, "x"));
      assign (Var my_b) (Member (Var bd, "x"));
    ]
    @ List.map2 (fun (_, n) arg -> assign (Var n) arg) my_args l.l_args
    @ [
        decl_int base (Binop (Mul, bid_x, bdim_x));
        decl_int pidx (Call ("atomicAdd", [ addr (sh @: i0); i1 ]));
        decl_int prev (Call ("atomicAdd", [ addr (sh @: i1); Var my_g ]));
      ]
    @ capture_stores k child ~base_e:(Var base) ~pidx_e:(Var pidx)
        ~prev_e:(Var prev) ~gdx_e:(Var my_g) ~bdx_e:(Var my_b)
        ~args:(List.map (fun (_, n) -> Var n) my_args)
    @ [ expr_s (Call ("atomicMax", [ addr (sh @: Int_lit 2); Var my_b ])) ]
  in
  let do_launch =
    sif
      (Binop (LAnd, Binop (Eq, tid_x, i0), Binop (Gt, sh @: i0, i0)))
      [
        agg_launch k child ~agg_name ~seg_e:(Binop (Mul, bid_x, bdim_x))
          ~total_e:(sh @: i1)
          ~maxb_e:(sh @: Int_lit 2)
          ~count_e:(sh @: i0);
      ]
      []
  in
  let direct_launch =
    (* Section V-B fallback: each participating parent launches its own
       child grid directly *)
    sif
      (Binop (Gt, Var my_g, i0))
      [
        stmt
          (Launch
             {
               l_kernel = child.f_name;
               l_grid = Var my_g;
               l_block = Var my_b;
               l_args = List.map (fun (_, n) -> Var n) my_args;
             });
      ]
      []
  in
  let tail =
    [ stmt Sync ]
    @
    match agg_threshold with
    | None -> [ do_launch ]
    | Some t ->
        [
          sif
            (Binop (Ge, sh @: i0, Int_lit t))
            [ do_launch ] [ direct_launch ];
        ]
  in
  {
    sc_top_decls = List.map t_agg top;
    sc_capture = List.map t_agg capture;
    sc_tail = List.map t_agg tail;
    sc_params = buffer_params k child ~with_counters:false ~with_nfin:false;
    sc_auto =
      buffer_auto k child ~with_counters:false ~with_nfin:false
        ~groups:(fun ~grid_blocks ~block_threads:_ -> grid_blocks)
        ~cap:(fun ~grid_blocks:_ ~block_threads -> block_threads);
    sc_followup = [];
  }

(* ---- warp granularity ---- *)

let gen_warp k (child : func) ~agg_name ~(l : launch) ~agg_threshold ~taken =
  let f = site_fresh k taken in
  let my_g = f "_myG" and my_b = f "_myB" in
  let my_args = List.map (fun p -> (p, f ("_my_" ^ p.p_name))) child.f_params in
  let top =
    [ decl_int my_g i0; decl_int my_b i0 ]
    @ List.map (fun ((p : param), n) -> stmt (Decl (p.p_ty, n, None))) my_args
  in
  let gd = f "_gd" and bd = f "_bd" in
  let capture =
    [
      decl TDim3 gd l.l_grid;
      decl TDim3 bd l.l_block;
      assign (Var my_g) (Member (Var gd, "x"));
      assign (Var my_b) (Member (Var bd, "x"));
    ]
    @ List.map2 (fun (_, n) arg -> assign (Var n) arg) my_args l.l_args
  in
  let part = f "_part"
  and pscan = f "_pscan"
  and cnt = f "_cnt"
  and gscan = f "_gscan"
  and tot = f "_tot"
  and maxb = f "_maxb"
  and wid = f "_wid"
  and base = f "_base" in
  let aggregate =
    [
      decl_int gscan (Call ("warp_scan_excl", [ Var my_g ]));
      decl_int tot (Call ("warp_sum", [ Var my_g ]));
      decl_int maxb (Call ("warp_max", [ Var my_b ]));
      decl_int wid
        (Binop
           ( Add,
             Binop
               ( Mul,
                 bid_x,
                 Binop (Div, Binop (Add, bdim_x, Int_lit 31), Int_lit 32) ),
             Binop (Div, tid_x, Int_lit 32) ));
      decl_int base (Binop (Mul, Var wid, Int_lit 32));
      sif
        (Binop (Eq, Var part, i1))
        (capture_stores k child ~base_e:(Var base) ~pidx_e:(Var pscan)
           ~prev_e:(Var gscan) ~gdx_e:(Var my_g) ~bdx_e:(Var my_b)
           ~args:(List.map (fun (_, n) -> Var n) my_args))
        [];
      stmt Syncwarp;
      sif
        (Binop (LAnd, Binop (Eq, Var part, i1), Binop (Eq, Var pscan, i0)))
        [
          agg_launch k child ~agg_name ~seg_e:(Var base) ~total_e:(Var tot)
            ~maxb_e:(Var maxb) ~count_e:(Var cnt);
        ]
        [];
    ]
  in
  let direct_launch =
    sif
      (Binop (Eq, Var part, i1))
      [
        stmt
          (Launch
             {
               l_kernel = child.f_name;
               l_grid = Var my_g;
               l_block = Var my_b;
               l_args = List.map (fun (_, n) -> Var n) my_args;
             });
      ]
      []
  in
  let tail =
    [
      decl_int part (Ternary (Binop (Gt, Var my_g, i0), i1, i0));
      decl_int pscan (Call ("warp_scan_excl", [ Var part ]));
      decl_int cnt (Call ("warp_sum", [ Var part ]));
    ]
    @
    match agg_threshold with
    | None -> aggregate
    | Some t ->
        [ sif (Binop (Ge, Var cnt, Int_lit t)) aggregate [ direct_launch ] ]
  in
  {
    sc_top_decls = List.map t_agg top;
    sc_capture = List.map t_agg capture;
    sc_tail = List.map t_agg tail;
    sc_params = buffer_params k child ~with_counters:false ~with_nfin:false;
    sc_auto =
      buffer_auto k child ~with_counters:false ~with_nfin:false
        ~groups:(fun ~grid_blocks ~block_threads ->
          grid_blocks * warps_per_block ~block_threads)
        ~cap:(fun ~grid_blocks:_ ~block_threads:_ -> 32);
    sc_followup = [];
  }

(* ---------- the pass ---------- *)

(** [transform ?opts prog] aggregates every eligible launch site. *)
let transform ?(opts = default_options) (prog : program) : result =
  let taken = ref (List.concat_map Ast_util.all_names prog) in
  let reports = ref [] in
  let report parent child ok reason =
    reports :=
      {
        sr_parent = parent;
        sr_child = child;
        sr_transformed = ok;
        sr_reason = reason;
      }
      :: !reports
  in
  let agg_children = Hashtbl.create 4 in
  let new_funcs = ref [] in
  let auto_params = ref [] in
  let site_counter = ref 0 in
  let ensure_agg_child (child : func) =
    match Hashtbl.find_opt agg_children child.f_name with
    | Some n -> n
    | None ->
        let agg, name = build_agg_child child ~taken:!taken in
        taken := Ast_util.all_names agg @ !taken;
        Hashtbl.add agg_children child.f_name name;
        new_funcs := (child.f_name, agg) :: !new_funcs;
        name
  in
  let transform_parent (p : func) : func =
    if p.f_kind <> Global then p
    else begin
      let my_params = ref [] in
      let my_auto = ref [] in
      let my_top = ref [] in
      let my_followup = ref [] in
      (* rewrite each top-level statement, collecting tails to splice *)
      let new_body =
        List.concat_map
          (fun (top_stmt : stmt) ->
            let tails = ref [] in
            let rewritten =
              Ast_util.map_stmts
                ~stmt:(fun s ->
                  match s.sdesc with
                  | Launch l -> (
                      match find_func prog l.l_kernel with
                      | None -> [ s ]
                      | Some child -> (
                          match
                            Eligibility.aggregation_site ~prog p
                              ~child:l.l_kernel
                          with
                          | Ineligible reason ->
                              report p.f_name l.l_kernel false reason;
                              [ s ]
                          | Eligible ->
                              let agg_name = ensure_agg_child child in
                              let k = !site_counter in
                              incr site_counter;
                              report p.f_name l.l_kernel true
                                (Fmt.str "site %d, %a granularity" k
                                   pp_granularity opts.granularity);
                              let code =
                                match opts.granularity with
                                | Grid -> gen_grid k child ~agg_name ~l ~taken
                                | Multi_block g ->
                                    gen_multi_block k g child ~agg_name ~l
                                      ~taken
                                | Block ->
                                    gen_block k child ~agg_name ~l
                                      ~agg_threshold:opts.agg_threshold ~taken
                                | Warp ->
                                    gen_warp k child ~agg_name ~l
                                      ~agg_threshold:opts.agg_threshold ~taken
                              in
                              my_params := !my_params @ code.sc_params;
                              my_auto := !my_auto @ code.sc_auto;
                              my_top := !my_top @ code.sc_top_decls;
                              my_followup := !my_followup @ code.sc_followup;
                              tails := !tails @ code.sc_tail;
                              code.sc_capture))
                  | _ -> [ s ])
                [ top_stmt ]
            in
            rewritten @ !tails)
          p.f_body
      in
      if !my_params = [] then p
      else begin
        if !my_auto <> [] then
          auto_params := (p.f_name, !my_auto) :: !auto_params;
        {
          p with
          f_params = p.f_params @ !my_params;
          f_body = !my_top @ new_body;
          f_host_followup =
            (match (p.f_host_followup, !my_followup) with
            | None, [] -> None
            | prev, extra ->
                Some (Option.value prev ~default:[] @ extra));
        }
      end
    end
  in
  let prog' = List.map transform_parent prog in
  let prog' =
    List.fold_left
      (fun acc (anchor, fn) -> Ast.add_func_after acc ~anchor fn)
      prog' !new_funcs
  in
  {
    prog = prog';
    auto_params = List.rev !auto_params;
    reports = List.rev !reports;
  }
