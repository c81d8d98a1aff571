(** Eligibility analysis: which kernels and launch sites each optimization
    can legally transform (paper Section III-C plus the structural
    requirements of the aggregation codegen). *)

type verdict = Eligible | Ineligible of string

(** Can the child's threads be serialized in the parent? Rejects barrier
    synchronization (block or warp scope, including warp collectives) and
    shared memory, transitively through called device functions
    (Section III-C). *)
val thresholding_child : Minicu.Ast.program -> Minicu.Ast.func -> verdict

(** Every MiniCU kernel's body can be extracted and coarsened. *)
val coarsening_child : Minicu.Ast.program -> Minicu.Ast.func -> verdict

(** Can the launch of [child] inside [parent] be aggregated? The generated
    epilogue needs a block-uniform join point every thread reaches exactly
    once, so launches inside loops, parents with early returns, and parents
    whose existing barriers are divergent (per {!Minicu.Divergence}, which
    needs [prog] to resolve device calls; defaults to the empty program)
    are rejected. Recursive nesting — the child launching [parent] back,
    including the self-recursive [parent = child] case — is rejected too:
    the aggregated clone of the child's body would launch the
    buffer-extended parent with the original argument list. *)
val aggregation_site :
  ?prog:Minicu.Ast.program -> Minicu.Ast.func -> child:string -> verdict

(** Is the (any) launch of [kernel] nested inside a loop in [body]? *)
val launch_in_loop : kernel:string -> Minicu.Ast.stmt list -> bool
