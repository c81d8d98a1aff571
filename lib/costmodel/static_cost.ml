(** Static per-thread cost of MiniCU statements, mirroring the simulator's
    charging rules ({!Gpusim.Bytecode}'s per-statement charges) without
    executing anything.

    The walker reuses {!Gpusim.Runtime.expr_cost} for expressions and
    applies the same per-statement constants the lowering charges. Where
    the dynamic cost depends on data, it approximates:

    - [If] takes the {e max} of the two branches (warps execute in
      lockstep, so a divergent warp pays the longer side; the remainder is
      the divergence penalty the model fits separately);
    - data-dependent loops ([For]/[While]) are assumed to run [trip]
      iterations — callers pick [trip] from the workload profile (e.g.
      log2 of the mean child size for binary-search loops);
    - [Launch] statements cost {e zero} here: launch issue is a separate
      model term ([Feature.t_issue]), charged only on lanes that actually
      launch. *)

open Minicu.Ast

let rec stmts_cost ~(cfg : Gpusim.Config.t) ~(trip : int) (ss : stmt list) :
    float =
  List.fold_left (fun acc s -> acc +. stmt_cost ~cfg ~trip s) 0.0 ss

and stmt_cost ~cfg ~trip (s : stmt) : float =
  let ec e = float_of_int (Gpusim.Runtime.expr_cost cfg e) in
  let fi = float_of_int in
  let tripf = fi (max 1 trip) in
  match s.sdesc with
  | Decl (_, _, Some e) -> ec e +. fi cfg.arith_cost
  | Decl (_, _, None) -> 0.0
  | Decl_shared (_, _, _) -> fi cfg.arith_cost
  | Assign (lv, e) ->
      ec e
      +.
      (match lv with
      | Index _ -> fi (cfg.mem_cost + cfg.arith_cost)
      | Member (Index _, _) -> fi ((2 * cfg.mem_cost) + cfg.arith_cost)
      | _ -> fi cfg.arith_cost)
  | If (c, a, b) ->
      ec c +. fi cfg.branch_cost
      +. Float.max (stmts_cost ~cfg ~trip a) (stmts_cost ~cfg ~trip b)
  | While (c, body) ->
      let iter = ec c +. fi cfg.branch_cost in
      ((tripf +. 1.0) *. iter) +. (tripf *. stmts_cost ~cfg ~trip body)
  | For (init, cond, step, body) ->
      let initc = match init with Some s -> stmt_cost ~cfg ~trip s | None -> 0.0 in
      let iter =
        (match cond with Some c -> ec c | None -> 0.0) +. fi cfg.branch_cost
      in
      let stepc = match step with Some s -> stmt_cost ~cfg ~trip s | None -> 0.0 in
      initc
      +. ((tripf +. 1.0) *. iter)
      +. (tripf *. (stmts_cost ~cfg ~trip body +. stepc))
  | Return (Some e) -> ec e
  | Return None -> 0.0
  | Expr_stmt e -> ec e
  | Launch _ -> 0.0
  | Sync -> fi cfg.sync_cost
  | Syncwarp -> fi cfg.warp_collective_cost
  | Threadfence -> fi cfg.fence_cost
  | Break | Continue -> 0.0

(** Per-thread cost of a kernel's body (entry cost excluded: the model
    accounts for [cdp_entry_cost] as its own term). *)
let func_cost ~cfg ~trip (f : func) : float = stmts_cost ~cfg ~trip f.f_body

(** The per-iteration overhead the thresholding pass's serialization loop
    adds around one child-item body (loop condition + increment + branch),
    in cycles. *)
let serial_loop_overhead (cfg : Gpusim.Config.t) : float =
  float_of_int ((2 * cfg.arith_cost) + cfg.branch_cost)
