(** Static per-thread cost of MiniCU code, mirroring the simulator's
    charging rules: same expression costs ([Gpusim.Runtime.expr_cost]),
    same per-statement constants as {!Gpusim.Bytecode}'s lowering, with
    lockstep [If] = max of branches, data-dependent loops assumed to run
    [trip] iterations, and [Launch] costing zero (launch issue is a
    separate model term). *)

val stmts_cost :
  cfg:Gpusim.Config.t -> trip:int -> Minicu.Ast.stmt list -> float

val stmt_cost : cfg:Gpusim.Config.t -> trip:int -> Minicu.Ast.stmt -> float

(** Per-thread cost of a kernel body ([cdp_entry_cost] excluded — it is
    its own model term). *)
val func_cost : cfg:Gpusim.Config.t -> trip:int -> Minicu.Ast.func -> float

(** Per-iteration overhead of the thresholding pass's serialization loop
    (condition + increment + branch), in cycles. *)
val serial_loop_overhead : Gpusim.Config.t -> float
