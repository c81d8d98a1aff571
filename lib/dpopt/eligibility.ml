(** Eligibility analysis: which kernels and launch sites each optimization
    can legally transform (paper Section III-C plus the structural
    requirements of the aggregation codegen). *)

open Minicu
open Minicu.Ast

type verdict = Eligible | Ineligible of string

let is_warp_collective name =
  match Builtins.find name with
  | Some b -> b.b_cost = Builtins.Warp_collective
  | None -> false

(* Statements of [f] plus, transitively, of every device function it calls. *)
let rec reachable_stmts (prog : program) seen (f : func) : stmt list =
  if List.mem f.f_name !seen then []
  else begin
    seen := f.f_name :: !seen;
    let callees =
      Ast_util.fold_exprs_in_stmts
        (fun acc e ->
          match e with
          | Call (g, _) when not (Builtins.is_builtin g) -> g :: acc
          | _ -> acc)
        [] f.f_body
    in
    f.f_body
    @ List.concat_map
        (fun g ->
          match find_func prog g with
          | Some gf when gf.f_kind = Device -> reachable_stmts prog seen gf
          | _ -> [])
        callees
  end

let uses_warp_collectives ss =
  Ast_util.fold_exprs_in_stmts
    (fun acc e ->
      acc || match e with Call (g, _) -> is_warp_collective g | _ -> false)
    false ss

(** Can [child]'s threads be serialized in the parent (thresholding,
    Section III-C)? Disallowed: barrier synchronization (block or warp
    scope, including warp collectives) and shared memory — checked
    transitively through called device functions. *)
let thresholding_child (prog : program) (child : func) : verdict =
  let ss = reachable_stmts prog (ref []) child in
  if Ast_util.contains_sync ss then
    Ineligible
      (Fmt.str
         "child kernel %S performs barrier synchronization; serializing it \
          would need scalar expansion and usually serializes a parallel \
          algorithm badly (Section III-C)"
         child.f_name)
  else if uses_warp_collectives ss then
    Ineligible
      (Fmt.str "child kernel %S uses warp collectives" child.f_name)
  else if Ast_util.contains_shared ss then
    Ineligible
      (Fmt.str
         "child kernel %S uses shared memory; each serializing parent \
          thread would need a block's worth of shared memory (Section \
          III-C)"
         child.f_name)
  else Eligible

(** Coarsening only needs the child's body to be extractable; every MiniCU
    kernel qualifies. *)
let coarsening_child (_prog : program) (_child : func) : verdict = Eligible

(* Is the (unique) launch of [kernel_name] inside a loop in [ss]? *)
let launch_in_loop ~(kernel : string) (body : stmt list) : bool =
  let rec in_stmts in_loop ss = List.exists (in_stmt in_loop) ss
  and in_stmt in_loop s =
    match s.sdesc with
    | Launch l when l.l_kernel = kernel -> in_loop
    | If (_, a, b) -> in_stmts in_loop a || in_stmts in_loop b
    | For (_, _, _, b) | While (_, b) -> in_stmts true b
    | _ -> false
  in
  in_stmts false body

let contains_return ss =
  Ast_util.fold_stmts
    (fun acc s -> acc || match s.sdesc with Return _ -> true | _ -> false)
    false ss

(** Can the launch of [child] inside [parent] be aggregated? The generated
    aggregation logic needs a block-uniform join point that every parent
    thread reaches exactly once, so:

    - the launch must not sit inside a loop (it would execute repeatedly);
    - the parent must not return early (a thread that exits never reaches
      the group counter / barrier, and its group's aggregated launch would
      be lost);
    - the parent must not already contain a divergent barrier
      ({!Minicu.Divergence}): the epilogue appends block/warp
      synchronization after the capture sites, and a parent whose barriers
      are not block-uniform gives it no well-defined join point. *)
let aggregation_site ?(prog : program = []) (parent : func) ~(child : string)
    : verdict =
  if launch_in_loop ~kernel:child parent.f_body then
    Ineligible
      (Fmt.str
         "launch of %S in %S is inside a loop; the aggregation epilogue \
          requires a single block-uniform join point"
         child parent.f_name)
  else if contains_return parent.f_body then
    Ineligible
      (Fmt.str
         "parent kernel %S returns early; threads that exit would never \
          reach the aggregation epilogue"
         parent.f_name)
  else if
    (* The aggregated child is a clone of the child's body, while the
       parent's signature grows by the capture buffers. A child that
       launches the parent back (self-recursion being the common case:
       parent = child) would leave the clone launching the extended
       parent with the original argument list — ill-typed output. *)
    parent.f_name = child
    || List.exists
         (fun (f : func) ->
           f.f_name = child
           && List.exists
                (fun ((l : Ast.launch), _) -> l.l_kernel = parent.f_name)
                (Ast_util.launch_sites f.f_body))
         prog
  then
    Ineligible
      (Fmt.str
         "child kernel %S launches its parent %S back (recursive nesting); \
          the aggregated clone would launch the buffer-extended parent \
          with the original arguments"
         child parent.f_name)
  else
    match Divergence.divergent_barriers prog parent with
    | [] -> Eligible
    | ev :: _ ->
        Ineligible
          (Fmt.str
             "parent kernel %S has a divergent barrier at %a (%a control \
              flow); the aggregation epilogue cannot establish a \
              block-uniform join point"
             parent.f_name Loc.pp ev.ev_loc Divergence.pp_level ev.ev_ctx)
