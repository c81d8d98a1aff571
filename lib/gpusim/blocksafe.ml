(** Cross-block independence analysis for parallel block dispatch.

    [analyze prog f] decides whether distinct blocks of a grid of kernel
    [f] can execute concurrently with results bit-identical to sequential
    execution. The proof obligation is that no block's execution can
    observe another block's memory effects, or that the effects commute
    exactly:

    - the kernel issues no launches, allocates nothing (no device [malloc],
      no [__shared__] declarations — both mutate the global buffer table),
      and has no host followup;
    - every {e written} pointer parameter is used in exactly one of two
      modes:
      {ul
      {- {b Owned}: every access (load, store, atomic) lands in the
         accessing thread's private window [{stride*gtid + d | 0 <= d <
         stride}], where [gtid = blockIdx.x*blockDim.x + threadIdx.x].
         Windows of distinct threads are disjoint, so no cross-block
         communication is possible (a 1-D launch is required for [gtid]
         to be injective; the scheduler checks the dims at dispatch).}
      {- {b Reduce}: every access is an integer [atomicAdd] / [atomicSub] /
         [atomicMin] / [atomicMax] whose result is discarded. These are
         exact commutative-associative reductions over OCaml [int]s, so
         the final contents are independent of execution order.}}
    - parameters that are only read are unrestricted.

    Whether concrete pointer arguments alias is not decidable here; at
    dispatch the scheduler admits a grid into a parallel batch only if
    every buffer it shares (with itself or another grid of the batch) is
    shared by uses of the same mode, never by an [Owned] use. Anything the analysis cannot prove
    falls back to serial execution — unprovable never means wrong, only
    slow. *)

open Minicu.Ast

(** How a pointer parameter is used by the kernel (see module doc). *)
type mode =
  | Read_only  (** Never written through (also: non-pointer parameters). *)
  | Owned of int  (** All accesses in the thread's window of this stride. *)
  | Reduce  (** Only discarded-result commutative integer atomics. *)

type summary = {
  bs_safe : bool;
  bs_reason : string;  (** Why not, when [not bs_safe]; [""] otherwise. *)
  bs_modes : mode array;  (** Per-parameter; meaningful when [bs_safe]. *)
  bs_needs_1d : bool;
      (** Whether safety relies on [gtid] injectivity (any [Owned]
          parameter): the dispatcher must check grid/block are 1-D. *)
}

let unsafe reason =
  { bs_safe = false; bs_reason = reason; bs_modes = [||]; bs_needs_1d = false }

(* ------------------------------------------------------------------ *)
(* Abstract values                                                     *)
(* ------------------------------------------------------------------ *)

(* Abstract integers. [Aff] is the owned-window shape: [g*gtid + [lo, hi]]
   where [gtid = blockIdx.x*blockDim.x + threadIdx.x]; [g = 0] degenerates
   to a per-thread-varying constant range (e.g. a counted loop variable).
   [Uni] is "uniform": the same (unknown) value in every thread of the
   grid — kernel parameters and arithmetic over them. The [Bid]/[Bdim]/
   [Tid]/[Bid_bdim] atoms exist only to recognize the gtid idiom. *)
type aval =
  | Top
  | Cst of int
  | Uni
  | Bid  (* blockIdx.x *)
  | Bdim  (* blockDim.x *)
  | Tid  (* threadIdx.x *)
  | Bid_bdim  (* blockIdx.x * blockDim.x *)
  | Aff of { g : int; lo : int; hi : int }

(* Abstract pointers: parameter provenance plus abstract offset. *)
type pval = P_top | P_param of int * aval

type absv = AV of aval | PV of pval | Other

let gtid = Aff { g = 1; lo = 0; hi = 0 }

let add_aval a b =
  match (a, b) with
  | Cst x, Cst y -> Cst (x + y)
  | (Cst _ | Uni), (Cst _ | Uni) -> Uni
  | Bid_bdim, Tid | Tid, Bid_bdim -> gtid
  | Aff a, Cst c | Cst c, Aff a ->
      Aff { a with lo = a.lo + c; hi = a.hi + c }
  | Aff a, Aff b -> Aff { g = a.g + b.g; lo = a.lo + b.lo; hi = a.hi + b.hi }
  | _ -> Top

let mul_aval a b =
  match (a, b) with
  | Cst x, Cst y -> Cst (x * y)
  | (Cst _ | Uni), (Cst _ | Uni) -> Uni
  | Bid, Bdim | Bdim, Bid -> Bid_bdim
  | Cst c, Aff a | Aff a, Cst c ->
      if c >= 0 then Aff { g = c * a.g; lo = c * a.lo; hi = c * a.hi }
      else Top
  | _ -> Top

let sub_aval a b =
  match (a, b) with
  | Cst x, Cst y -> Cst (x - y)
  | (Cst _ | Uni), (Cst _ | Uni) -> Uni
  | Aff a, Cst c -> Aff { a with lo = a.lo - c; hi = a.hi - c }
  | _ -> Top

(* Arithmetic that preserves uniformity but nothing else. *)
let uni_op a b =
  match (a, b) with (Cst _ | Uni), (Cst _ | Uni) -> Uni | _ -> Top

let join_aval a b = if a = b then a else Top

let join_absv a b =
  match (a, b) with
  | AV x, AV y -> AV (join_aval x y)
  | PV x, PV y -> if x = y then a else PV P_top
  | _ -> if a = b then a else Other

(* Normalize an abstract integer to the window shape, if it has one. *)
let window_of = function
  | Cst _ | Uni | Bid | Bdim | Tid | Bid_bdim | Top -> None
  | Aff { g; lo; hi } -> if g >= 1 && 0 <= lo && lo <= hi then Some (g, hi)
      else None

(* ------------------------------------------------------------------ *)
(* Analysis state                                                      *)
(* ------------------------------------------------------------------ *)

exception Reject of string

type access_kind =
  | Acc_read
  | Acc_write  (* plain store, or atomic with a used result / exch / CAS *)
  | Acc_reduce  (* discarded-result commutative integer atomic *)

type st = {
  prog : program;
  params : param array;
  mutable env : (string * absv) list;  (** Innermost binding first. *)
  accesses : (int, (access_kind * aval) list ref) Hashtbl.t;
      (** Per pointer-parameter index. *)
}

let record st i kind off =
  let l =
    match Hashtbl.find_opt st.accesses i with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.add st.accesses i l;
        l
  in
  l := (kind, off) :: !l

let lookup st x =
  match List.assoc_opt x st.env with Some v -> v | None -> Other

let bind st x v = st.env <- (x, v) :: st.env

let assign st x v =
  (* rebind at the innermost occurrence; shadowing copies are fine since
     we only ever read the innermost *)
  bind st x v

(* Reduce-eligible atomics must target an int element so the reduction is
   exact integer arithmetic (float adds do not commute bitwise). *)
let param_elem_ty st i =
  match st.params.(i).p_ty with TPtr t -> Some t | _ -> None

(* A device function is call-safe when its body (transitively) performs no
   memory writes, allocations, launches or barriers-with-state: such calls
   can only read memory. Conservative and cheap. *)
let rec call_safe prog seen (f : func) =
  if List.mem f.f_name seen then true
  else
    let seen = f.f_name :: seen in
    let rec stmt_ok (s : stmt) =
      match s.sdesc with
      | Decl (_, _, e) -> Option.fold ~none:true ~some:expr_ok e
      | Decl_shared _ -> false
      | Assign (Var _, e) -> expr_ok e
      | Assign (_, _) -> false (* store through a pointer *)
      | If (c, a, b) -> expr_ok c && List.for_all stmt_ok a && List.for_all stmt_ok b
      | For (i, c, st_, b) ->
          Option.fold ~none:true ~some:stmt_ok i
          && Option.fold ~none:true ~some:expr_ok c
          && Option.fold ~none:true ~some:stmt_ok st_
          && List.for_all stmt_ok b
      | While (c, b) -> expr_ok c && List.for_all stmt_ok b
      | Return e -> Option.fold ~none:true ~some:expr_ok e
      | Expr_stmt e -> expr_ok e
      | Launch _ -> false
      | Sync | Syncwarp | Threadfence | Break | Continue -> true
    and expr_ok (e : expr) =
      match e with
      | Int_lit _ | Float_lit _ | Bool_lit _ | Var _ -> true
      | Unop (_, a) | Cast (_, a) | Member (a, _) | Addr_of a -> expr_ok a
      | Binop (_, a, b) | Index (a, b) -> expr_ok a && expr_ok b
      | Ternary (a, b, c) -> expr_ok a && expr_ok b && expr_ok c
      | Dim3_ctor (a, b, c) -> expr_ok a && expr_ok b && expr_ok c
      | Call (g, args) -> (
          List.for_all expr_ok args
          &&
          match g with
          | "atomicAdd" | "atomicSub" | "atomicMin" | "atomicMax"
          | "atomicExch" | "atomicCAS" | "malloc" ->
              false
          | "min" | "max" | "abs" | "fabs" | "ceil" | "floor" | "sqrt"
          | "exp" | "log" | "pow" | "warp_scan_excl" | "warp_sum"
          | "warp_max" | "warp_bcast" ->
              true
          | name -> (
              match find_func prog name with
              | Some callee -> call_safe prog seen callee
              | None -> false))
    in
    List.for_all stmt_ok f.f_body

(* ------------------------------------------------------------------ *)
(* Expression evaluation (records accesses as a side effect)           *)
(* ------------------------------------------------------------------ *)

let commutative_atomic = function
  | "atomicAdd" | "atomicSub" | "atomicMin" | "atomicMax" -> true
  | _ -> false

let rec eval st (e : expr) : absv =
  match e with
  | Int_lit n -> AV (Cst n)
  | Float_lit _ | Bool_lit _ -> Other
  | Var x -> lookup st x
  | Member (Var "threadIdx", "x") -> AV Tid
  | Member (Var "blockIdx", "x") -> AV Bid
  | Member (Var "blockDim", "x") -> AV Bdim
  | Member (Var "gridDim", "x") -> AV Uni
  | Member (Var v, _) when is_reserved_var v ->
      (* y/z components: 0 or 1 under the (checked) 1-D dims, but they are
         uniform regardless only for blockDim/gridDim; be conservative. *)
      AV (match v with "blockDim" | "gridDim" -> Uni | _ -> Top)
  | Member (a, _) ->
      ignore (eval st a);
      AV Top
  | Unop (Not, a) ->
      ignore (eval st a);
      Other
  | Unop (Neg, a) -> (
      match eval st a with
      | AV (Cst n) -> AV (Cst (-n))
      | AV (Uni) -> AV Uni
      | _ -> AV Top)
  | Binop (op, a, b) -> (
      let va = eval st a and vb = eval st b in
      match (op, va, vb) with
      | Add, AV x, AV y -> AV (add_aval x y)
      | Add, PV (P_param (i, off)), AV x | Add, AV x, PV (P_param (i, off)) ->
          PV (P_param (i, add_aval off x))
      | Add, PV _, _ | Add, _, PV _ -> PV P_top
      | Sub, AV x, AV y -> AV (sub_aval x y)
      | Sub, PV (P_param (i, off)), AV (Cst c) ->
          PV (P_param (i, add_aval off (Cst (-c))))
      | Sub, PV _, _ -> PV P_top
      | Mul, AV x, AV y -> AV (mul_aval x y)
      | (Div | Mod | Shl | Shr | BAnd | BOr | BXor), AV x, AV y ->
          AV (uni_op x y)
      | (Lt | Le | Gt | Ge | Eq | Ne | LAnd | LOr), _, _ -> Other
      | _ -> AV Top)
  | Ternary (c, a, b) ->
      ignore (eval st c);
      join_absv (eval st a) (eval st b)
  | Index (p, i) ->
      let off = ptr_offset st p i in
      (match off with
      | Some (base, o) -> record st base Acc_read o
      | None -> raise (Reject "load through unknown pointer"));
      AV Top
  | Cast (TInt, a) -> (
      match eval st a with AV v -> AV v | _ -> AV Top)
  | Cast (_, a) ->
      ignore (eval st a);
      Other
  | Dim3_ctor (a, b, c) ->
      ignore (eval st a);
      ignore (eval st b);
      ignore (eval st c);
      Other
  | Addr_of (Index (p, i)) -> (
      match ptr_offset st p i with
      | Some (base, o) -> PV (P_param (base, o))
      | None -> PV P_top)
  | Addr_of _ -> PV P_top
  | Call (f, args) -> eval_call st f args

(* The pointer base and abstract offset of an access [p[i]]. *)
and ptr_offset st (p : expr) (i : expr) : (int * aval) option =
  let vp = eval st p in
  let vi = match eval st i with AV a -> a | _ -> Top in
  match vp with
  | PV (P_param (base, off)) -> Some (base, add_aval off vi)
  | _ -> None

and eval_call st f args : absv =
  match f with
  | "atomicAdd" | "atomicSub" | "atomicMin" | "atomicMax" | "atomicExch"
  | "atomicCAS" ->
      (* Recorded as a non-commutative access here; [Expr_stmt] intercepts
         the discarded-result commutative case before reaching this. *)
      eval_atomic st f args ~discarded:false
  | "malloc" -> raise (Reject "device-side malloc mutates the buffer table")
  | "min" | "max" | "abs" | "fabs" | "ceil" | "floor" | "sqrt" | "exp"
  | "log" | "pow" ->
      let vs = List.map (eval st) args in
      if
        List.for_all
          (function AV (Cst _ | Uni) -> true | _ -> false)
          vs
      then AV Uni
      else AV Top
  | "warp_scan_excl" | "warp_sum" | "warp_max" | "warp_bcast" ->
      List.iter (fun a -> ignore (eval st a)) args;
      AV Top
  | name -> (
      match find_func st.prog name with
      | None -> raise (Reject (Fmt.str "unknown function %S" name))
      | Some callee ->
          if not (call_safe st.prog [] callee) then
            raise
              (Reject
                 (Fmt.str "call to %S, which has memory effects" name));
          (* The callee can read arbitrary offsets of any pointer it
             receives: record a Top read on each pointer argument. *)
          List.iter
            (fun a ->
              match eval st a with
              | PV (P_param (i, _)) -> record st i Acc_read Top
              | PV P_top ->
                  raise (Reject "unknown pointer passed to device call")
              | _ -> ())
            args;
          AV Top)

and eval_atomic st f args ~discarded : absv =
  match args with
  | addr :: value :: rest ->
      let base, off =
        match eval st addr with
        | PV (P_param (i, o)) -> (i, o)
        | _ -> raise (Reject "atomic on unknown pointer")
      in
      ignore (eval st value);
      List.iter (fun a -> ignore (eval st a)) rest;
      let kind =
        if
          discarded
          && commutative_atomic f
          && param_elem_ty st base = Some TInt
        then Acc_reduce
        else Acc_write
      in
      record st base kind off;
      (* atomics read-modify-write their target *)
      if kind = Acc_write then record st base Acc_read off;
      AV Top
  | _ -> raise (Reject (Fmt.str "malformed atomic %S" f))

(* ------------------------------------------------------------------ *)
(* Statement walk                                                      *)
(* ------------------------------------------------------------------ *)

(* Shape of a [for] loop's induction variable. *)
type loop_var =
  | L_range of string * int * int  (* constant bounds: x in [lo, hi] *)
  | L_top of string
  | L_none

(* Variables assigned anywhere in [ss] (loop-carried state must be Topped
   before a single-pass body analysis is sound). *)
let rec assigned_vars acc (ss : stmt list) =
  List.fold_left
    (fun acc (s : stmt) ->
      match s.sdesc with
      | Assign (Var x, _) | Assign (Member (Var x, _), _) | Decl (_, x, _) ->
          x :: acc
      | Assign (_, _) -> acc
      | If (_, a, b) -> assigned_vars (assigned_vars acc a) b
      | For (i, _, st_, b) ->
          let acc = Option.fold ~none:acc ~some:(fun s -> assigned_vars acc [ s ]) i in
          let acc =
            Option.fold ~none:acc ~some:(fun s -> assigned_vars acc [ s ]) st_
          in
          assigned_vars acc b
      | While (_, b) -> assigned_vars acc b
      | _ -> acc)
    acc ss

let rec walk_stmts st (ss : stmt list) =
  let saved = st.env in
  List.iter (walk_stmt st) ss;
  st.env <- saved

and walk_stmt st (s : stmt) =
  match s.sdesc with
  | Decl (ty, x, init) ->
      let v =
        match init with
        | Some e -> eval st e
        | None -> (
            match ty with TInt -> AV (Cst 0) | _ -> Other)
      in
      bind st x v
  | Decl_shared _ ->
      raise (Reject "__shared__ declaration allocates device memory")
  | Assign (Var x, e) -> assign st x (eval st e)
  | Assign (Index (p, i), e) -> (
      ignore (eval st e);
      match ptr_offset st p i with
      | Some (base, o) -> record st base Acc_write o
      | None -> raise (Reject "store through unknown pointer"))
  | Assign (Member (Var x, _), e) ->
      ignore (eval st e);
      if not (is_reserved_var x) then assign st x (AV Top)
  | Assign (Member (Index (p, i), _), e) -> (
      ignore (eval st e);
      match ptr_offset st p i with
      | Some (base, o) ->
          record st base Acc_write o;
          record st base Acc_read o
      | None -> raise (Reject "store through unknown pointer"))
  | Assign (_, _) -> raise (Reject "unrecognized assignment target")
  | If (c, a, b) ->
      ignore (eval st c);
      walk_stmts st a;
      walk_stmts st b;
      (* A branch may or may not have run: conservatively forget every
         variable either branch assigns. (Topping a name also clobbers any
         same-named outer variable shadowed by a branch-local declaration —
         imprecise, never unsound.) *)
      List.iter
        (fun x -> assign st x (AV Top))
        (assigned_vars (assigned_vars [] a) b)
  | For (init, cond, step, body) ->
      let saved = st.env in
      (* Recognize the counted-loop idiom to give the loop variable a
         bounded range; otherwise it is Top like any loop-carried state. *)
      let counted =
        match (init, cond, step) with
        | ( Some { sdesc = Decl (TInt, x, Some e0); _ },
            Some (Binop ((Lt | Le) as cmp, Var x', bound)),
            Some { sdesc = Assign (Var x'', Binop (Add, Var x''', stp)); _ } )
          when x = x' && x = x'' && x = x''' -> (
            match (eval st e0, eval st bound, eval st stp) with
            | AV (Cst a), AV (Cst b), AV (Cst s) when s > 0 ->
                let last = match cmp with Lt -> b - 1 | _ -> b in
                L_range (x, a, max a last)
            | _ -> L_top x)
        | Some { sdesc = Decl (_, x, _); _ }, _, _ -> L_top x
        | Some { sdesc = Assign (Var x, _); _ }, _, _ -> L_top x
        | _ -> L_none
      in
      (match init with Some i -> walk_stmt st i | None -> ());
      (* Top every variable assigned in the loop before the single pass:
         with loop-carried state at Top and the loop variable covering its
         whole range, one pass over the body covers every iteration. *)
      let carried =
        assigned_vars [] (body @ match step with Some s -> [ s ] | None -> [])
      in
      List.iter (fun x -> assign st x (AV Top)) carried;
      (match counted with
      | L_range (x, lo, hi) -> assign st x (AV (Aff { g = 0; lo; hi }))
      | L_top x -> assign st x (AV Top)
      | L_none -> ());
      (match cond with Some c -> ignore (eval st c) | None -> ());
      walk_stmts st body;
      (match step with Some s -> walk_stmt st s | None -> ());
      st.env <- saved;
      (* Loop effects persist past the loop. *)
      List.iter (fun x -> assign st x (AV Top)) carried;
      (match counted with
      | L_range (x, _, _) | L_top x -> assign st x (AV Top)
      | L_none -> ())
  | While (cond, body) ->
      let saved = st.env in
      let carried = assigned_vars [] body in
      List.iter (fun x -> assign st x (AV Top)) carried;
      ignore (eval st cond);
      walk_stmts st body;
      st.env <- saved;
      List.iter (fun x -> assign st x (AV Top)) carried
  | Return e -> Option.iter (fun e -> ignore (eval st e)) e
  | Expr_stmt (Call (f, args)) when commutative_atomic f ->
      ignore (eval_atomic st f args ~discarded:true)
  | Expr_stmt e -> ignore (eval st e)
  | Launch _ -> raise (Reject "kernel launches")
  | Sync | Syncwarp | Threadfence | Break | Continue -> ()

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

let classify (params : param array) accesses : (mode array, string) result =
  let modes = Array.make (Array.length params) Read_only in
  let fail = ref None in
  Hashtbl.iter
    (fun i accs ->
      if !fail = None then begin
        let accs = !accs in
        let has_write =
          List.exists (fun (k, _) -> k = Acc_write) accs
        in
        let has_reduce = List.exists (fun (k, _) -> k = Acc_reduce) accs in
        let has_read = List.exists (fun (k, _) -> k = Acc_read) accs in
        if not (has_write || has_reduce) then modes.(i) <- Read_only
        else if has_reduce && not (has_write || has_read) then
          modes.(i) <- Reduce
        else begin
          (* Owned: every access in the thread's window, common stride. *)
          let stride = ref 0 in
          let ok =
            List.for_all
              (fun (_, off) ->
                match window_of off with
                | Some (g, hi) when hi < g ->
                    if !stride = 0 then stride := g;
                    !stride = g
                | _ -> false)
              accs
          in
          if ok && !stride > 0 then modes.(i) <- Owned !stride
          else
            fail :=
              Some
                (Fmt.str
                   "parameter %S is written outside a provable per-thread \
                    window"
                   params.(i).p_name)
        end
      end)
    accesses;
  match !fail with Some r -> Error r | None -> Ok modes

(** [analyze prog f] — see the module documentation. Total: never raises. *)
let analyze (prog : program) (f : func) : summary =
  if f.f_kind <> Global then unsafe "not a kernel"
  else if f.f_host_followup <> None then unsafe "has a host followup"
  else
    let params = Array.of_list f.f_params in
    let st =
      {
        prog;
        params;
        env =
          List.mapi
            (fun i (p : param) ->
              ( p.p_name,
                match p.p_ty with
                | TPtr _ -> PV (P_param (i, Cst 0))
                | TInt -> AV Uni
                | _ -> Other ))
            f.f_params
          |> List.rev;
        accesses = Hashtbl.create 8;
      }
    in
    (* Parameters bound innermost-last so shadowing works out; order of the
       assoc list only matters for lookup of the innermost, which [bind]
       preserves by consing. *)
    match walk_stmts st f.f_body with
    | () -> (
        match classify params st.accesses with
        | Error r -> unsafe r
        | Ok modes ->
            let needs_1d =
              Array.exists (function Owned _ -> true | _ -> false) modes
            in
            { bs_safe = true; bs_reason = ""; bs_modes = modes; bs_needs_1d = needs_1d }
        )
    | exception Reject r -> unsafe r
