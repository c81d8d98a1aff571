(** Flat bytecode/register IR for MiniCU device code — the lowering half
    of the simulator's execution engine; the VM ({!Vm}) runs it over
    unboxed register banks (separate int/float arrays) with no per-step
    allocation.

    Kernel bodies are lowered to a single flat instruction array over a
    per-function register file. The lowering fixes the simulator's
    observable semantics: where each statement's cost is charged, which
    runtime errors are raised with which messages, and the order of side
    effects (loads, stores, atomics, launches, coercion failures) — e.g. a
    binary operator evaluates its right operand first. The golden suite
    ([test/test_bytecode.ml]) pins all of this bit for bit, and the native
    backend ({e lib/native}) mirrors it.

    Registers are frame-relative indices. Parameters occupy registers
    [0 .. nparams-1]; locals and expression temporaries follow. Register
    numbers are reused across sibling scopes, so [bf_nregs] is the high-water
    mark, not the lexical slot count.

    A call of a leaf device function — one whose body calls no function
    of the program, such as the per-thread and per-block bodies the
    thresholding and coarsening passes extract — is lowered as the
    callee's body in place ([lower_inline]), with the same charges,
    coercions and effects in the same order as the [call] it replaces.
    [_serial] entries (whose call counts a serialized launch), functions
    that call others (recursive ones included) and functions that declare
    [__shared__] arrays (whose shared ids are numbered per function) keep
    their [call]. *)

open Minicu
open Minicu.Ast

(* ------------------------------------------------------------------ *)
(* Instruction set                                                     *)
(* ------------------------------------------------------------------ *)

type special = Sp_thread_idx | Sp_block_idx | Sp_block_dim | Sp_grid_dim

type float1 = F_fabs | F_ceil | F_floor | F_sqrt | F_exp | F_log

type atomic = A_add | A_sub | A_min | A_max | A_exch

type warp_kind = Wk_scan_excl | Wk_sum | Wk_max | Wk_sync

(* Operands are frame-relative register indices; jump targets are absolute
   instruction indices into the program's code array. A [Loc.t option]
   operand is [Some] exactly when the program was lowered under
   [Config.check]: it carries the source location for sanitizer reports and
   selects the instrumented execution path in the VM. *)
type instr =
  | I_const_unit of int
  | I_const_int of int * int
  | I_const_float of int * float
  | I_const_bool of int * bool
  | I_const_dim3 of int * int * int * int  (** dst, x, y, z immediates. *)
  | I_mov of int * int
  | I_special of int * special  (** dst <- dim3 of a reserved variable. *)
  | I_special_comp of int * special * string  (** dst <- threadIdx.f etc. *)
  | I_member of int * int * string  (** General [e.f] on a dim3/int value. *)
  | I_neg of int * int
  | I_not of int * int
  | I_binop of binop * int * int * int  (** op, dst, a, b. *)
  | I_binop_int of binop * int * int * int
      (** op, dst, a, int-literal right operand. Fused because literal
          operands are side-effect free, so skipping their materialization
          cannot reorder anything observable. *)
  | I_binop_float of binop * int * int * float
  | I_cmp_jf of binop * int * int * int
      (** Fused compare-and-branch: op, a, b, target if false. Only emitted
          for comparison operators at branch heads. *)
  | I_cmp_jf_int of binop * int * int * int
      (** op, a, int-literal right operand, target if false. *)
  | I_cmp_jt of binop * int * int * int
      (** op, a, b, target if true — the back edge of a rotated loop, where
          the bottom-of-body test falls through to the loop exit. *)
  | I_cmp_jt_int of binop * int * int * int
  | I_cast_int of int * int  (** dst <- Int (as_int src). *)
  | I_cast_float of int * int
  | I_cast_bool of int * int
  | I_cast_dim3 of int * int  (** dst <- Dim3 (as_dim3 src). *)
  | I_as_ptr of int * int  (** dst <- Ptr (as_ptr src). *)
  | I_dim3 of int * int * int * int  (** dst, rx, ry, rz (Int registers). *)
  | I_load of int * int * int * Loc.t option  (** dst <- mem\[p + i\]. *)
  | I_store of int * int * int * Loc.t option  (** mem\[p + i\] <- v. *)
  | I_addr of int * int * int  (** dst <- &p\[i\]. *)
  | I_min of int * int * int
  | I_max of int * int * int
  | I_abs of int * int
  | I_float1 of float1 * int * int
  | I_pow of int * int * int  (** dst, a, b (Float registers). *)
  | I_atomic of atomic * int * int * int * Loc.t option
      (** op, dst (old value), p (Ptr register), v. *)
  | I_cas of int * int * int * int * Loc.t option  (** dst, p, cmp, v. *)
  | I_malloc of int * int
  | I_warp of int * warp_kind * int  (** dst, collective, arg. *)
  | I_warp_bcast of int * int * int  (** dst, arg, lane (Int register). *)
  | I_call of int * int * int array  (** dst, function index, arg regs. *)
  | I_ret_unit
  | I_ret of int
  | I_jump of int
  | I_jump_if_false of int * int  (** reg (as_bool), target. *)
  | I_jump_if_true of int * int
  | I_charge of int * float  (** Metrics tag index, cycles. *)
  | I_split_dim3 of int * int * int * int
      (** dx, dy, dz <- components of the dim3 in slot (member assignment). *)
  | I_set_dim3 of int * string * int * int * int * int
      (** slot, member, dx, dy, dz, v: slot <- dim3 with member set to v. *)
  | I_member_load_dim of int * int * int * int * int * Loc.t option
      (** dx, dy, dz <- components of the dim3 at mem\[p + i\]. *)
  | I_member_store_dim of int * int * string * int * int * int * int * Loc.t option
      (** p, i, member, dx, dy, dz, v: mem\[p + i\] <- updated dim3. *)
  | I_shared_hit of int * int * int
      (** slot, shared id, target: if the block already allocated [id], bind
          it to [slot] and jump over the size/alloc code. *)
  | I_shared_alloc of int * int * int * Value.t
      (** slot, shared id, size reg, element initializer. *)
  | I_launch_check of string * int * int
      (** kernel, grid reg, block reg (Dim3 registers): configuration
          validation, before argument evaluation. *)
  | I_launch of string * int * int * int array
  | I_sync

(* ------------------------------------------------------------------ *)
(* Compiled functions and programs                                     *)
(* ------------------------------------------------------------------ *)

(* A kernel's block-uniform prefix: code indices [bf_entry, u_end). See
   [uniform_prefix] for the rule. *)
type uniform = {
  u_end : int;  (** First instruction after the prefix. *)
  u_regs : int array;  (** Registers the prefix writes, ascending. *)
  u_params : int array;
      (** Pointer parameters the prefix loads through, ascending. *)
}

type func = {
  bf_name : string;
  bf_kind : func_kind;
  mutable bf_nregs : int;  (** Register high-water mark (body + followup). *)
  bf_nparams : int;
  bf_contains_launch : bool;
  bf_is_serial : bool;
  mutable bf_entry : int;  (** Body entry pc. *)
  mutable bf_followup : int option;  (** Host-followup entry pc. *)
  mutable bf_uniform : uniform option;  (** [__global__] kernels only. *)
}

type prog = {
  bp_code : instr array;  (** All functions, lowered contiguously. *)
  bp_funcs : func array;  (** In program order ([bf_entry] ascending). *)
  bp_index : (string, int) Hashtbl.t;  (** Name -> index into [bp_funcs]. *)
  bp_ast : program;
  (* Packed form: [bp_code] flattened into a word stream, which is what the
     VM actually dispatches on. One small-int opcode word followed by its
     operand words; jump targets are word offsets; float/string/value/loc
     operands live in side pools, referenced by index. *)
  bp_ops : int array;
  bp_woff : int array;
      (** Instruction index -> word offset (length [|bp_code| + 1]). *)
  bp_fpool : float array;
  bp_spool : string array;
  bp_vpool : Value.t array;
  bp_lpool : Loc.t array;
}

(* A dim3 component's operand in [member] and [special.comp] words, and
   its index in a parameter's bound components. *)
let component_code = function
  | "x" -> 0
  | "y" -> 1
  | "z" -> 2
  | f -> Value.error "dim3 has no member %S" f

let find_func_exn p name =
  match Hashtbl.find_opt p.bp_index name with
  | Some i -> p.bp_funcs.(i)
  | None -> Value.error "no such function %S" name

(* ------------------------------------------------------------------ *)
(* Lowering environment                                                *)
(* ------------------------------------------------------------------ *)

type emitter = { mutable buf : instr array; mutable len : int }

let emit em i =
  if em.len = Array.length em.buf then begin
    let nb = Array.make (max 256 (2 * em.len)) I_ret_unit in
    Array.blit em.buf 0 nb 0 em.len;
    em.buf <- nb
  end;
  em.buf.(em.len) <- i;
  em.len <- em.len + 1;
  em.len - 1

let patch em pc i = em.buf.(pc) <- i

(* Re-point the jump-family placeholder at [pc] (emitted with target -1)
   to [target], preserving its operands. *)
let patch_target em pc target =
  patch em pc
    (match em.buf.(pc) with
    | I_jump _ -> I_jump target
    | I_jump_if_false (r, _) -> I_jump_if_false (r, target)
    | I_jump_if_true (r, _) -> I_jump_if_true (r, target)
    | I_cmp_jf (op, a, b, _) -> I_cmp_jf (op, a, b, target)
    | I_cmp_jf_int (op, a, n, _) -> I_cmp_jf_int (op, a, n, target)
    | I_cmp_jt (op, a, b, _) -> I_cmp_jt (op, a, b, target)
    | I_cmp_jt_int (op, a, n, _) -> I_cmp_jt_int (op, a, n, target)
    | _ -> assert false)

type loop_ctx = { breaks : int list ref; continues : int list ref }

(* What the lowering knows of a function before lowering any call of it;
   computed once per function ([facts_of]). *)
type facts = {
  fa_func : Ast.func;
  fa_inline : bool;
      (** Calls of it are lowered inline: a [__device__] leaf (its body
          calls no function of the program) that is no [_serial] entry
          and declares no [__shared__] array. *)
  fa_written : string list;  (** Parameters assigned ([p = …], [p.f = …]). *)
  fa_fixed : string list;
      (** [dim3] parameters, each named once, never assigned and never
          redeclared: a [dim3(a, b, c)] argument may bind them to its
          components. *)
  fa_ints : (string, unit) Hashtbl.t;  (** Int-valued locals; see [int_locals]. *)
  fa_returns : int;  (** [return] statements in the body. *)
  fa_tail : bool;  (** The body's last statement is a [return]. *)
}

(* Where the [return]s of an inlined body go: each lowers its value into
   [r_dst] and jumps to the join point, apart from a return that is the
   body's last statement ([r_tail]), which falls through to it. *)
type ret_ctx = {
  r_dst : int;
  r_used : bool;  (** The call's value is read: unit returns write it. *)
  r_tail : bool;
  mutable r_left : int;  (** Returns not lowered yet, the tail included. *)
  mutable r_joins : int list;
}

type lenv = {
  funcs : func array;
  facts : facts array;
  index : (string, int) Hashtbl.t;
  em : emitter;
  mutable slots : (string * int) list;  (** Innermost binding first. *)
  mutable dims : (string * (int * int * int)) list;
      (** Parameters bound to the component registers of their argument
          (inlined bodies only). *)
  mutable ints : (string, unit) Hashtbl.t;
      (** The lowered function's int-valued locals. *)
  mutable next_reg : int;
  mutable max_reg : int;
  mutable shared_ids : int;
  cfg : Config.t;
  mutable fname : string;
  mutable cur_loc : Loc.t;
  mutable loops : loop_ctx list;  (** Innermost loop first. *)
  mutable ret : ret_ctx option;  (** [Some] inside an inlined body. *)
}

let tmp env =
  let r = env.next_reg in
  env.next_reg <- r + 1;
  if env.next_reg > env.max_reg then env.max_reg <- env.next_reg;
  r

let bind env x =
  let r = tmp env in
  env.slots <- (x, r) :: env.slots;
  r

let slot_of env x loc_hint =
  match List.assoc_opt x env.slots with
  | Some s -> s
  | None -> Value.error "in %s: unbound variable %S (%s)" env.fname x loc_hint

let mark env = env.next_reg
let reset env m = env.next_reg <- m

(* Save/restore lexical scope around nested blocks. The register counter
   is restored too: sibling scopes reuse registers, which is safe because
   every [Decl] (re)writes its register before any use. *)
let scoped env f =
  let slots = env.slots and regs = env.next_reg in
  let r = f () in
  env.slots <- slots;
  env.next_reg <- regs;
  r

let check_loc env = if env.cfg.check then Some env.cur_loc else None

(* ------------------------------------------------------------------ *)
(* Statement charges                                                   *)
(* ------------------------------------------------------------------ *)

let default_value : ty -> Value.t = function
  | TInt -> Value.Int 0
  | TFloat -> Value.Float 0.0
  | TBool -> Value.Bool false
  | TDim3 -> Value.Dim3 (1, 1, 1)
  | TPtr _ | TVoid -> Value.Unit

(* --- Charge coalescing -------------------------------------------------

   Each statement's (statically computed) cost is charged as the
   statement starts executing. Costs are observable at exactly two
   points: a launch records the thread's running total ([lr_issue_cost]),
   and per-tag totals are aggregated when the block completes. A thread
   that enters a straight-line statement run either executes all of it or
   aborts the whole launch, so one [I_charge] for the run's summed cost —
   emitted at the run's head — is indistinguishable from per-statement
   charges, provided no launch can occur after a statement whose cost was
   pre-charged. Runs therefore end *after* a [Launch]/[Return]/call-bearing
   statement and *before* any control-flow statement. *)

(* [stmt_charge cfg s] is [Some (tag, cost)] for straight-line statements
   — the single source of truth for their cost formulas — and [None] for
   control flow, which charges itself during lowering. *)
let stmt_charge (cfg : Config.t) (s : stmt) : (int * int) option =
  let tag = Metrics.index_of_tag s.stag in
  match s.sdesc with
  | Decl (_, _, Some e) -> Some (tag, Runtime.expr_cost cfg e + cfg.arith_cost)
  | Decl (_, _, None) -> Some (tag, 0)
  | Decl_shared _ -> Some (tag, cfg.arith_cost)
  | Assign (lv, e) ->
      Some
        ( tag,
          Runtime.expr_cost cfg e
          + (match lv with
            | Index _ -> cfg.mem_cost + cfg.arith_cost
            | Member (Index _, _) -> (2 * cfg.mem_cost) + cfg.arith_cost
            | _ -> cfg.arith_cost) )
  | Expr_stmt e -> Some (tag, Runtime.expr_cost cfg e)
  | Return (Some e) -> Some (tag, Runtime.expr_cost cfg e)
  | Return None -> Some (tag, 0)
  | Launch l ->
      Some
        ( tag,
          cfg.launch_issue_cost
          + Runtime.expr_cost cfg l.l_grid
          + Runtime.expr_cost cfg l.l_block
          + List.fold_left (fun acc a -> acc + Runtime.expr_cost cfg a) 0 l.l_args
        )
  | Sync | Syncwarp -> Some (tag, cfg.sync_cost)
  | Threadfence -> Some (tag, cfg.fence_cost)
  | If _ | While _ | For _ | Break | Continue -> None

let rec expr_has_call = function
  | Call _ -> true
  | Int_lit _ | Float_lit _ | Bool_lit _ | Var _ -> false
  | Unop (_, a) | Member (a, _) | Cast (_, a) | Addr_of a -> expr_has_call a
  | Binop (_, a, b) | Index (a, b) -> expr_has_call a || expr_has_call b
  | Ternary (a, b, c) ->
      expr_has_call a || expr_has_call b || expr_has_call c
  | Dim3_ctor (a, b, c) ->
      expr_has_call a || expr_has_call b || expr_has_call c

(* A statement ends a charge run (it stays included, but nothing merges in
   after it) when executing it can observe the thread's cost total: its own
   launch, a return, or a call into a function that may itself launch —
   conservatively, any call at all. *)
let closes_run (s : stmt) : bool =
  match s.sdesc with
  | Launch _ | Return _ -> true
  | Assign (lv, e) -> expr_has_call lv || expr_has_call e
  | Decl (_, _, Some e) | Expr_stmt e -> expr_has_call e
  | Decl (_, _, None) -> false
  | Decl_shared (_, _, e) -> expr_has_call e
  | Sync | Syncwarp | Threadfence -> false
  | If _ | While _ | For _ | Break | Continue -> true

(* ------------------------------------------------------------------ *)
(* Expression lowering                                                 *)
(* ------------------------------------------------------------------ *)

(* [yields_int ints e]: [e] evaluates to an [Int] whenever it evaluates at
   all, so a [cast.int] of its register would copy it unchanged. Int
   literals, [e.f] reads, [(int)] casts, the int-valued locals [ints],
   and [+ - * / % & | ^ << >>], unary minus and [?:] over such operands;
   never a parameter, another variable, a load or a call, which hold
   whatever was passed or stored. The walk descends only through
   operators, so each node is visited from at most one coercion point and
   lowering stays linear in the expression's size. *)
let rec yields_int ints = function
  | Int_lit _ | Member _ | Cast (TInt, _) -> true
  | Var x -> Hashtbl.mem ints x
  | Binop ((Add | Sub | Mul | Div | Mod | BAnd | BOr | BXor | Shl | Shr), a, b)
  | Ternary (_, a, b) ->
      yields_int ints a && yields_int ints b
  | Unop (Neg, a) -> yields_int ints a
  | _ -> false

(* [int_locals f]: the locals of [f] that only ever hold an [Int]. A name
   counts when it is no parameter, is never member-assigned or
   [__shared__], and every [Decl] and [=] of it, in the body and the host
   followup, is [int x;] or yields an int given the names that count —
   the largest such set, found by dropping names that break the rule
   until none does. A declaration does not coerce its initializer, so
   [int j = 1.5;] holds a float and [j] does not count. *)
let int_locals (f : Ast.func) =
  (* Each name's definitions: [Some e] must yield an int ([int x;] writes
     0), [None] bars the name. *)
  let defs = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.add defs p.p_name None) f.f_params;
  let visit () s =
    match s.sdesc with
    | Decl (TInt, x, None) -> Hashtbl.add defs x (Some (Int_lit 0))
    | Decl (_, x, None) | Decl_shared (_, x, _) | Assign (Member (Var x, _), _)
      ->
        Hashtbl.add defs x None
    | Decl (_, x, Some e) | Assign (Var x, e) -> Hashtbl.add defs x (Some e)
    | _ -> ()
  in
  Ast_util.fold_stmts visit () f.f_body;
  Option.iter (Ast_util.fold_stmts visit ()) f.f_host_followup;
  let ints = Hashtbl.create 16 in
  Hashtbl.iter
    (fun x _ ->
      if not (is_reserved_var x || List.mem None (Hashtbl.find_all defs x)) then
        Hashtbl.replace ints x ())
    defs;
  let holds x =
    List.for_all
      (function Some e -> yields_int ints e | None -> false)
      (Hashtbl.find_all defs x)
  in
  let rec fix () =
    match Hashtbl.fold (fun x () bad -> if holds x then bad else x :: bad) ints [] with
    | [] -> ints
    | bad ->
        List.iter (Hashtbl.remove ints) bad;
        fix ()
  in
  fix ()

let facts_of (f : Ast.func) =
  let params = List.map (fun p -> p.p_name) f.f_params in
  let written = ref [] and declared = ref [] and returns = ref 0 in
  Ast_util.fold_stmts
    (fun () s ->
      match s.sdesc with
      | Assign ((Var x | Member (Var x, _)), _) when List.mem x params ->
          written := x :: !written
      | Decl (_, x, _) | Decl_shared (_, x, _) -> declared := x :: !declared
      | Return _ -> incr returns
      | _ -> ())
    () f.f_body;
  let calls =
    Ast_util.fold_exprs_in_stmts
      (fun found e ->
        found || match e with Call (g, _) -> Builtins.find g = None | _ -> false)
      false f.f_body
  in
  {
    fa_func = f;
    fa_inline =
      f.f_kind = Device && (not calls)
      && (not (Runtime.has_serial_suffix f.f_name))
      && not (Ast_util.contains_shared f.f_body);
    fa_written = !written;
    fa_fixed =
      List.filter_map
        (fun p ->
          let x = p.p_name in
          if
            p.p_ty = TDim3
            && List.length (List.filter (String.equal x) params) = 1
            && not (List.mem x !written || List.mem x !declared)
          then Some x
          else None)
        f.f_params;
    fa_ints = int_locals f;
    fa_returns = !returns;
    fa_tail =
      (match List.rev f.f_body with
      | { sdesc = Return _; _ } :: _ -> true
      | _ -> false);
  }

(* A [dim3] argument component a parameter may be bound to: it is an int
   whose evaluation has no effect and cannot fail (an int literal, a
   built-in component, an int-valued local of the caller). *)
let infallible ints = function
  | Int_lit _
  | Member (Var ("threadIdx" | "blockIdx" | "blockDim" | "gridDim"), ("x" | "y" | "z"))
    ->
      true
  | Var x -> Hashtbl.mem ints x
  | _ -> false

(* A [dim3] whose components are all variables, literals or built-in
   components coerces them itself: evaluating them has no effect and
   cannot fail, so coercing after all three are evaluated raises what
   coercing each in turn would. *)
let self_coercing = function
  | Var _ | Int_lit _ | Float_lit _ | Bool_lit _
  | Member (Var ("threadIdx" | "blockIdx" | "blockDim" | "gridDim"), _) ->
      true
  | _ -> false

let is_literal = function
  | Int_lit _ | Float_lit _ | Bool_lit _ -> true
  | _ -> false

(* [lower_expr env e] emits code evaluating [e] and returns the register
   holding the result: a fresh temporary, or the variable's own register
   for [Var]. Temporaries are reclaimed by the caller via [mark]/[reset]. *)
let rec lower_expr env (e : expr) : int =
  let ins i = ignore (emit env.em i) in
  match e with
  | Int_lit n ->
      let d = tmp env in
      ins (I_const_int (d, n));
      d
  | Float_lit f ->
      let d = tmp env in
      ins (I_const_float (d, f));
      d
  | Bool_lit b ->
      let d = tmp env in
      ins (I_const_bool (d, b));
      d
  | Var "threadIdx" ->
      let d = tmp env in
      ins (I_special (d, Sp_thread_idx));
      d
  | Var "blockIdx" ->
      let d = tmp env in
      ins (I_special (d, Sp_block_idx));
      d
  | Var "blockDim" ->
      let d = tmp env in
      ins (I_special (d, Sp_block_dim));
      d
  | Var "gridDim" ->
      let d = tmp env in
      ins (I_special (d, Sp_grid_dim));
      d
  | Var x -> (
      match List.assoc_opt x env.dims with
      | Some (rx, ry, rz) ->
          let d = tmp env in
          ins (I_dim3 (d, rx, ry, rz));
          d
      | None -> slot_of env x "use")
  | Member (Var "threadIdx", f) ->
      let d = tmp env in
      ins (I_special_comp (d, Sp_thread_idx, f));
      d
  | Member (Var "blockIdx", f) ->
      let d = tmp env in
      ins (I_special_comp (d, Sp_block_idx, f));
      d
  | Member (Var "blockDim", f) ->
      let d = tmp env in
      ins (I_special_comp (d, Sp_block_dim, f));
      d
  | Member (Var "gridDim", f) ->
      let d = tmp env in
      ins (I_special_comp (d, Sp_grid_dim, f));
      d
  | Member (Dim3_ctor (x, y, z), (("x" | "y" | "z") as f)) ->
      lower_component env None (x, y, z) f
  | Member (Var x, f) when List.mem_assoc x env.dims ->
      bound_component env x f
  | Member (a, f) ->
      let ra = lower_expr env a in
      let d = tmp env in
      ins (I_member (d, ra, f));
      d
  | Unop (Neg, a) ->
      let ra = lower_expr env a in
      let d = tmp env in
      ins (I_neg (d, ra));
      d
  | Unop (Not, a) ->
      let ra = lower_expr env a in
      let d = tmp env in
      ins (I_not (d, ra));
      d
  | Binop (LAnd, a, b) ->
      (* Short-circuit: the result register is written before [b] runs, so
         it must be a fresh temporary (never a variable's register). *)
      let d = tmp env in
      let m = mark env in
      let ra = lower_expr env a in
      ins (I_cast_bool (d, ra));
      reset env m;
      let j = emit env.em (I_jump_if_false (d, -1)) in
      let rb = lower_expr env b in
      ins (I_cast_bool (d, rb));
      reset env m;
      patch env.em j (I_jump_if_false (d, env.em.len));
      d
  | Binop (LOr, a, b) ->
      let d = tmp env in
      let m = mark env in
      let ra = lower_expr env a in
      ins (I_cast_bool (d, ra));
      reset env m;
      let j = emit env.em (I_jump_if_true (d, -1)) in
      let rb = lower_expr env b in
      ins (I_cast_bool (d, rb));
      reset env m;
      patch env.em j (I_jump_if_true (d, env.em.len));
      d
  | Binop (op, a, Int_lit n) ->
      (* Literal right operands fuse into immediate forms: the literal is
         side-effect free, so skipping its materialization cannot change
         the b-before-a evaluation order observably. *)
      let ra = lower_expr env a in
      let d = tmp env in
      ins (I_binop_int (op, d, ra, n));
      d
  | Binop (op, a, Float_lit f) ->
      let ra = lower_expr env a in
      let d = tmp env in
      ins (I_binop_float (op, d, ra, f));
      d
  | Binop (op, a, b) ->
      (* Right-to-left evaluation order: [b] before [a]. *)
      let rb = lower_expr env b in
      let ra = lower_expr env a in
      let d = tmp env in
      ins (I_binop (op, d, ra, rb));
      d
  | Ternary (c, a, b) ->
      let d = tmp env in
      let m = mark env in
      let jf = lower_cond_jf env c in
      lower_into env d a;
      reset env m;
      let je = emit env.em (I_jump (-1)) in
      patch_target env.em jf env.em.len;
      lower_into env d b;
      reset env m;
      patch_target env.em je env.em.len;
      d
  | Index (p, i) ->
      let rp = lower_expr env p in
      let tp = tmp env in
      ins (I_as_ptr (tp, rp));
      let ti = lower_int env i in
      let d = tmp env in
      ins (I_load (d, tp, ti, check_loc env));
      d
  | Cast (TInt, a) ->
      let ra = lower_expr env a in
      let d = tmp env in
      ins (I_cast_int (d, ra));
      d
  | Cast (TFloat, a) ->
      let ra = lower_expr env a in
      let d = tmp env in
      ins (I_cast_float (d, ra));
      d
  | Cast (TBool, a) ->
      let ra = lower_expr env a in
      let d = tmp env in
      ins (I_cast_bool (d, ra));
      d
  | Cast (_, a) -> lower_expr env a
  | Dim3_ctor (x, y, z) ->
      let tx, ty, tz = lower_dim3_operands env (x, y, z) in
      let d = tmp env in
      ins (I_dim3 (d, tx, ty, tz));
      d
  | Addr_of lv -> lower_addr env lv
  | Call (f, args) -> lower_call env f args

and lower_addr env (lv : expr) : int =
  let ins i = ignore (emit env.em i) in
  match lv with
  | Index (p, i) ->
      let rp = lower_expr env p in
      let tp = tmp env in
      ins (I_as_ptr (tp, rp));
      let ti = lower_int env i in
      let d = tmp env in
      ins (I_addr (d, tp, ti));
      d
  | Var x ->
      Value.error
        "in %s: cannot take the address of local variable %S (MiniCU atomics \
         require a pointer element, e.g. &a[i])"
        env.fname x
  | _ -> Value.error "in %s: '&' requires an indexable lvalue" env.fname

(* The register of component [f] of the parameter [x], bound to its
   [dim3] argument's components. *)
and bound_component env x f =
  let rx, ry, rz = List.assoc x env.dims in
  match component_code f with 0 -> rx | 1 -> ry | _ -> rz

(* [lower_int env e] is a register holding [e] coerced to an Int: [e]'s
   own when [yields_int e], else a [cast.int] of it. *)
and lower_int env e =
  let r = lower_expr env e in
  if yields_int env.ints e then r
  else
    let ti = tmp env in
    ignore (emit env.em (I_cast_int (ti, r)));
    ti

(* The operand registers of a [dim3] of [(x, y, z)], evaluated z, y, x
   as the constructor evaluates them: the components themselves when the
   [dim3] coerces them, else each coerced as it is evaluated. *)
and lower_dim3_operands env (x, y, z) =
  if self_coercing x && self_coercing y && self_coercing z then
    let rz = lower_expr env z in
    let ry = lower_expr env y in
    (lower_expr env x, ry, rz)
  else
    let tz = lower_int env z in
    let ty = lower_int env y in
    (lower_int env x, ty, tz)

(* [dim3(x, y, z).f] builds no dim3: the components are evaluated and
   coerced z, y, x, as the constructor does, the unselected ones only
   for their effects and errors (a literal has neither and is skipped),
   and the selected one is the result. With [Some dst], the result goes
   to [dst], written directly when nothing with effects is evaluated
   after the selected component. *)
and lower_component env dst (x, y, z) f =
  let comps = [| x; y; z |] in
  let k = match f with "x" -> 0 | "y" -> 1 | _ -> 2 in
  let later = Array.exists (fun c -> not (is_literal c)) (Array.sub comps 0 k) in
  let r = ref (-1) in
  for i = 2 downto 0 do
    let c = comps.(i) in
    if i = k then
      r :=
        match dst with
        | Some d when not later ->
            (if yields_int env.ints c then lower_into env d c
             else
               let rc = lower_expr env c in
               ignore (emit env.em (I_cast_int (d, rc))));
            d
        | _ -> lower_int env c
    else if not (is_literal c) then ignore (lower_int env c)
  done;
  (match dst with
  | Some d when !r <> d -> ignore (emit env.em (I_mov (d, !r)))
  | _ -> ());
  !r

and lower_call env f args : int =
  (* The result register is allocated up front so [lower_into] can pass a
     variable's slot instead; operand temporaries number after it. *)
  let d = tmp env in
  lower_call_into env d f args;
  d

(* Every call-like instruction writes its destination strictly after all
   its operands are read (and after memory effects), so [d] may be a live
   variable slot that also appears among the operands; an inlined body
   writes [d] only in its returns, each the last thing it does. [~used]
   is false for a call whose value is dropped. *)
and lower_call_into ?(used = true) env d f args : unit =
  let ins i = ignore (emit env.em i) in
  let nth n = List.nth args n in
  match f with
  | "min" | "max" ->
      let ra = lower_expr env (nth 0) in
      let rb = lower_expr env (nth 1) in
      ins (if f = "min" then I_min (d, ra, rb) else I_max (d, ra, rb))
  | "abs" ->
      let ra = lower_expr env (nth 0) in
      ins (I_abs (d, ra))
  | "fabs" | "ceil" | "floor" | "sqrt" | "exp" | "log" ->
      let fn =
        match f with
        | "fabs" -> F_fabs
        | "ceil" -> F_ceil
        | "floor" -> F_floor
        | "sqrt" -> F_sqrt
        | "exp" -> F_exp
        | _ -> F_log
      in
      let ra = lower_expr env (nth 0) in
      ins (I_float1 (fn, d, ra))
  | "pow" ->
      (* Right-to-left application: arg 1 is evaluated and coerced before
         arg 0 is evaluated. *)
      let rb = lower_expr env (nth 1) in
      let tb = tmp env in
      ins (I_cast_float (tb, rb));
      let ra = lower_expr env (nth 0) in
      let ta = tmp env in
      ins (I_cast_float (ta, ra));
      ins (I_pow (d, ta, tb))
  | "atomicAdd" | "atomicSub" | "atomicMin" | "atomicMax" | "atomicExch" ->
      let aop =
        match f with
        | "atomicAdd" -> A_add
        | "atomicSub" -> A_sub
        | "atomicMin" -> A_min
        | "atomicMax" -> A_max
        | _ -> A_exch
      in
      let rp = lower_expr env (nth 0) in
      let tp = tmp env in
      ins (I_as_ptr (tp, rp));
      let rv = lower_expr env (nth 1) in
      ins (I_atomic (aop, d, tp, rv, check_loc env))
  | "atomicCAS" ->
      let rp = lower_expr env (nth 0) in
      let tp = tmp env in
      ins (I_as_ptr (tp, rp));
      let rc = lower_expr env (nth 1) in
      let rv = lower_expr env (nth 2) in
      ins (I_cas (d, tp, rc, rv, check_loc env))
  | "malloc" ->
      let ra = lower_expr env (nth 0) in
      ins (I_malloc (d, ra))
  | "warp_scan_excl" | "warp_sum" | "warp_max" ->
      let wk =
        match f with
        | "warp_scan_excl" -> Wk_scan_excl
        | "warp_sum" -> Wk_sum
        | _ -> Wk_max
      in
      let ra = lower_expr env (nth 0) in
      ins (I_warp (d, wk, ra))
  | "warp_bcast" ->
      (* Lane (arg 1) is evaluated and coerced before the payload (arg 0). *)
      let tl = lower_int env (nth 1) in
      let ra = lower_expr env (nth 0) in
      ins (I_warp_bcast (d, ra, tl))
  | _ -> (
      match Hashtbl.find_opt env.index f with
      | Some fi ->
          let cf = env.funcs.(fi) in
          if cf.bf_kind <> Device then
            Value.error "cannot call kernel %S; kernels must be launched" f;
          if List.length args <> cf.bf_nparams then
            Value.error "call to %S: wrong arity" f;
          if env.facts.(fi).fa_inline then
            lower_inline env ~used d env.facts.(fi) args
          else
            let regs = List.map (lower_expr env) args in
            ins (I_call (d, fi, Array.of_list regs))
      | None -> Value.error "in %s: unknown function %S" env.fname f)

(* A call of a leaf, lowered as the leaf's body in place. The arguments
   are evaluated left to right, as for [call]. A parameter the body never
   assigns reads its argument's register, which nothing in the body can
   write; an assigned one whose argument is a caller's variable (a
   register below [m]) reads a copy. A [dim3] parameter in [fa_fixed]
   whose argument is [dim3(a, b, c)] of [infallible] components is bound
   to their registers, so [p.x] reads [a]'s and only a use of [p] as a
   whole builds the [dim3]. Inside the body the names, int-valued locals,
   loops, function name and source location are the callee's; they are
   the caller's again after it. *)
and lower_inline env ~used d fa args =
  let f = fa.fa_func in
  let m = mark env in
  let slots = ref [] and dims = ref [] in
  List.iter2
    (fun (p : param) a ->
      match a with
      | Dim3_ctor (x, y, z)
        when List.mem p.p_name fa.fa_fixed
             && List.for_all (infallible env.ints) [ x; y; z ] ->
          let rz = lower_expr env z in
          let ry = lower_expr env y in
          dims := (p.p_name, (lower_expr env x, ry, rz)) :: !dims
      | _ ->
          let r = lower_expr env a in
          let r =
            if r < m && List.mem p.p_name fa.fa_written then begin
              let c = tmp env in
              ignore (emit env.em (I_mov (c, r)));
              c
            end
            else r
          in
          slots := (p.p_name, r) :: !slots)
    f.f_params args;
  let rc =
    {
      r_dst = d;
      r_used = used;
      r_tail = fa.fa_tail;
      r_left = fa.fa_returns;
      r_joins = [];
    }
  in
  let caller =
    (env.slots, env.dims, env.ints, env.loops, env.fname, env.cur_loc, env.ret)
  in
  env.slots <- !slots;
  env.dims <- !dims;
  env.ints <- fa.fa_ints;
  env.loops <- [];
  env.fname <- f.f_name;
  env.ret <- Some rc;
  lower_stmts env f.f_body;
  if used && not fa.fa_tail then ignore (emit env.em (I_const_unit d));
  List.iter (fun pc -> patch_target env.em pc env.em.len) rc.r_joins;
  let slots, dims, ints, loops, fname, loc, ret = caller in
  env.slots <- slots;
  env.dims <- dims;
  env.ints <- ints;
  env.loops <- loops;
  env.fname <- fname;
  env.cur_loc <- loc;
  env.ret <- ret;
  reset env m

(* [lower_cond_jf env c] lowers a branch condition and emits the
   conditional jump, fusing compare-and-branch when [c] is a top-level
   comparison. Returns the pc of the jump (target -1, patched later via
   [patch_target]). Condition temporaries are reclaimed before returning,
   as at any branch head. *)
and lower_cond_jf env (c : expr) : int =
  let m = mark env in
  let j =
    match c with
    | Binop (((Lt | Le | Gt | Ge | Eq | Ne) as op), a, Int_lit n) ->
        let ra = lower_expr env a in
        emit env.em (I_cmp_jf_int (op, ra, n, -1))
    | Binop (((Lt | Le | Gt | Ge | Eq | Ne) as op), a, b) ->
        let rb = lower_expr env b in
        let ra = lower_expr env a in
        emit env.em (I_cmp_jf (op, ra, rb, -1))
    | c ->
        let rc = lower_expr env c in
        emit env.em (I_jump_if_false (rc, -1))
  in
  reset env m;
  j

(* Dual of [lower_cond_jf]: jump when the condition holds. Used for the
   bottom-of-body test of rotated loops. *)
and lower_cond_jt env (c : expr) : int =
  let m = mark env in
  let j =
    match c with
    | Binop (((Lt | Le | Gt | Ge | Eq | Ne) as op), a, Int_lit n) ->
        let ra = lower_expr env a in
        emit env.em (I_cmp_jt_int (op, ra, n, -1))
    | Binop (((Lt | Le | Gt | Ge | Eq | Ne) as op), a, b) ->
        let rb = lower_expr env b in
        let ra = lower_expr env a in
        emit env.em (I_cmp_jt (op, ra, rb, -1))
    | c ->
        let rc = lower_expr env c in
        emit env.em (I_jump_if_true (rc, -1))
  in
  reset env m;
  j

(* [lower_into env dst e] evaluates [e] directly into [dst], which may be
   a live variable slot: the destination-writing instruction always comes
   last, with every operand read before [dst] is written, so [dst] may
   appear among [e]'s operands. Short-circuit operators are the exception
   — they write their result register before the right operand runs — and
   route through a temporary. *)
and lower_into env dst (e : expr) : unit =
  let ins i = ignore (emit env.em i) in
  match e with
  | Int_lit n -> ins (I_const_int (dst, n))
  | Float_lit f -> ins (I_const_float (dst, f))
  | Bool_lit b -> ins (I_const_bool (dst, b))
  | Var "threadIdx" -> ins (I_special (dst, Sp_thread_idx))
  | Var "blockIdx" -> ins (I_special (dst, Sp_block_idx))
  | Var "blockDim" -> ins (I_special (dst, Sp_block_dim))
  | Var "gridDim" -> ins (I_special (dst, Sp_grid_dim))
  | Var x -> (
      match List.assoc_opt x env.dims with
      | Some (rx, ry, rz) -> ins (I_dim3 (dst, rx, ry, rz))
      | None ->
          let s = slot_of env x "use" in
          if s <> dst then ins (I_mov (dst, s)))
  | Member (Var "threadIdx", f) -> ins (I_special_comp (dst, Sp_thread_idx, f))
  | Member (Var "blockIdx", f) -> ins (I_special_comp (dst, Sp_block_idx, f))
  | Member (Var "blockDim", f) -> ins (I_special_comp (dst, Sp_block_dim, f))
  | Member (Var "gridDim", f) -> ins (I_special_comp (dst, Sp_grid_dim, f))
  | Member (Dim3_ctor (x, y, z), (("x" | "y" | "z") as f)) ->
      ignore (lower_component env (Some dst) (x, y, z) f)
  | Member (Var x, f) when List.mem_assoc x env.dims ->
      let r = bound_component env x f in
      if r <> dst then ins (I_mov (dst, r))
  | Member (a, f) ->
      let ra = lower_expr env a in
      ins (I_member (dst, ra, f))
  | Unop (Neg, a) ->
      let ra = lower_expr env a in
      ins (I_neg (dst, ra))
  | Unop (Not, a) ->
      let ra = lower_expr env a in
      ins (I_not (dst, ra))
  | Binop ((LAnd | LOr), _, _) ->
      let r = lower_expr env e in
      if r <> dst then ins (I_mov (dst, r))
  | Binop (op, a, Int_lit n) ->
      let ra = lower_expr env a in
      ins (I_binop_int (op, dst, ra, n))
  | Binop (op, a, Float_lit f) ->
      let ra = lower_expr env a in
      ins (I_binop_float (op, dst, ra, f))
  | Binop (op, a, b) ->
      let rb = lower_expr env b in
      let ra = lower_expr env a in
      ins (I_binop (op, dst, ra, rb))
  | Ternary (c, a, b) ->
      let m = mark env in
      let jf = lower_cond_jf env c in
      lower_into env dst a;
      reset env m;
      let je = emit env.em (I_jump (-1)) in
      patch_target env.em jf env.em.len;
      lower_into env dst b;
      reset env m;
      patch_target env.em je env.em.len
  | Index (p, i) ->
      let rp = lower_expr env p in
      let tp = tmp env in
      ins (I_as_ptr (tp, rp));
      let ti = lower_int env i in
      ins (I_load (dst, tp, ti, check_loc env))
  | Cast (TInt, a) ->
      let ra = lower_expr env a in
      ins (I_cast_int (dst, ra))
  | Cast (TFloat, a) ->
      let ra = lower_expr env a in
      ins (I_cast_float (dst, ra))
  | Cast (TBool, a) ->
      let ra = lower_expr env a in
      ins (I_cast_bool (dst, ra))
  | Cast (_, a) -> lower_into env dst a
  | Dim3_ctor (x, y, z) ->
      let tx, ty, tz = lower_dim3_operands env (x, y, z) in
      ins (I_dim3 (dst, tx, ty, tz))
  | Addr_of (Index (p, i)) ->
      let rp = lower_expr env p in
      let tp = tmp env in
      ins (I_as_ptr (tp, rp));
      let ti = lower_int env i in
      ins (I_addr (dst, tp, ti))
  | Addr_of lv ->
      (* Non-indexable lvalues: reuse [lower_addr] for its diagnostics. *)
      ignore (lower_addr env lv)
  | Call (f, args) -> lower_call_into env dst f args

(* ------------------------------------------------------------------ *)
(* Statement lowering                                                  *)
(* ------------------------------------------------------------------ *)

and lower_stmt ?(self_charge = true) env (s : stmt) : unit =
  env.cur_loc <- s.sloc;
  let ins i = ignore (emit env.em i) in
  let cfg = env.cfg in
  let tag = Metrics.index_of_tag s.stag in
  let charge cost = if cost <> 0 then ins (I_charge (tag, float_of_int cost)) in
  (* Straight-line statements take their cost from [stmt_charge] (suppressed
     when a coalesced run already charged it); control flow uses [charge]. *)
  let charge_self () =
    if self_charge then
      match stmt_charge cfg s with
      | Some (tg, c) when c <> 0 -> ins (I_charge (tg, float_of_int c))
      | _ -> ()
  in
  match s.sdesc with
  | Decl (ty, x, init) -> (
      match init with
      | Some e ->
          charge_self ();
          (* Reserve the slot register before lowering — the initializer
             evaluates directly into it — but bind the name only after:
             [int x = x + 1] must read the outer [x]. *)
          let sl = tmp env in
          lower_into env sl e;
          env.next_reg <- sl + 1;
          env.slots <- (x, sl) :: env.slots
      | None -> (
          let sl = bind env x in
          match ty with
          | TInt -> ins (I_const_int (sl, 0))
          | TFloat -> ins (I_const_float (sl, 0.0))
          | TBool -> ins (I_const_bool (sl, false))
          | TDim3 -> ins (I_const_dim3 (sl, 1, 1, 1))
          | TPtr _ | TVoid -> ins (I_const_unit sl)))
  | Decl_shared (ty, x, size) ->
      charge_self ();
      let id = env.shared_ids in
      env.shared_ids <- id + 1;
      let dv = default_value ty in
      let m = mark env in
      let hit = emit env.em (I_jump (-1)) in
      let rsz = lower_expr env size in
      reset env m;
      let sl = bind env x in
      ins (I_shared_alloc (sl, id, rsz, dv));
      patch env.em hit (I_shared_hit (sl, id, env.em.len))
  | Assign (lv, e) ->
      charge_self ();
      let m = mark env in
      (match lv with
      | Var x ->
          let sl = slot_of env x "assignment" in
          lower_into env sl e
      | Index (p, i) ->
          let rp = lower_expr env p in
          let tp = tmp env in
          ins (I_as_ptr (tp, rp));
          let ti = lower_int env i in
          let rv = lower_expr env e in
          ins (I_store (tp, ti, rv, check_loc env))
      | Member (Var x, f) when not (is_reserved_var x) ->
          let sl = slot_of env x "member assignment" in
          let dx = tmp env and dy = tmp env and dz = tmp env in
          ins (I_split_dim3 (dx, dy, dz, sl));
          let tn = lower_int env e in
          ins (I_set_dim3 (sl, f, dx, dy, dz, tn))
      | Member (Index (p, i), f) ->
          let rp = lower_expr env p in
          let tp = tmp env in
          ins (I_as_ptr (tp, rp));
          let ti = lower_int env i in
          let dx = tmp env and dy = tmp env and dz = tmp env in
          ins (I_member_load_dim (dx, dy, dz, tp, ti, check_loc env));
          let tn = lower_int env e in
          ins (I_member_store_dim (tp, ti, f, dx, dy, dz, tn, check_loc env))
      | _ -> Value.error "in %s: invalid assignment target" env.fname);
      reset env m
  | If (c, a, b) ->
      charge (Runtime.expr_cost cfg c + cfg.branch_cost);
      let jf = lower_cond_jf env c in
      scoped env (fun () -> lower_stmts env a);
      if b = [] then patch_target env.em jf env.em.len
      else begin
        let je = emit env.em (I_jump (-1)) in
        patch_target env.em jf env.em.len;
        scoped env (fun () -> lower_stmts env b);
        patch_target env.em je env.em.len
      end
  | While (c, body) ->
      (* Rotated: the test is emitted twice — an entry guard, then again at
         the bottom of the body where the back edge becomes a fall-through
         test — so an iteration executes no unconditional jump. Both copies
         charge the iteration cost first, before the test evaluates;
         [continue] targets the bottom test. *)
      let iter_cost = float_of_int (Runtime.expr_cost cfg c + cfg.branch_cost) in
      let charge_iter () =
        if iter_cost <> 0.0 then ins (I_charge (tag, iter_cost))
      in
      charge_iter ();
      let jf = lower_cond_jf env c in
      let body_top = env.em.len in
      let ctx = { breaks = ref []; continues = ref [] } in
      env.loops <- ctx :: env.loops;
      scoped env (fun () -> lower_stmts env body);
      env.loops <- List.tl env.loops;
      let bottom = env.em.len in
      charge_iter ();
      let jt = lower_cond_jt env c in
      patch_target env.em jt body_top;
      let end_ = env.em.len in
      patch_target env.em jf end_;
      List.iter (fun pc -> patch_target env.em pc end_) !(ctx.breaks);
      List.iter (fun pc -> patch_target env.em pc bottom) !(ctx.continues)
  | For (init, cond, step, body) ->
      (* Rotated: init; entry charge + guard; body; step; bottom charge +
         test jumping back to the body — an iteration executes no
         unconditional jump. When the step is a straight-line statement
         with the loop's tag, its charge folds into the bottom iteration
         charge (one [I_charge] covering step + test; same sum at every
         observable point, since neither can launch once call-bearing
         steps are excluded). [continue] targets the step. The body is
         lowered before the step; typechecking runs before lowering, so
         lowering order cannot reorder any user-visible error. *)
      scoped env (fun () ->
          (match init with Some s -> lower_stmt env s | None -> ());
          let iter_cost =
            float_of_int
              ((match cond with Some c -> Runtime.expr_cost cfg c | None -> 0)
              + cfg.branch_cost)
          in
          let charge_iter () =
            if iter_cost <> 0.0 then ins (I_charge (tag, iter_cost))
          in
          charge_iter ();
          let jf =
            match cond with
            | Some c -> Some (lower_cond_jf env c)
            | None -> None
          in
          let body_top = env.em.len in
          let ctx = { breaks = ref []; continues = ref [] } in
          env.loops <- ctx :: env.loops;
          scoped env (fun () -> lower_stmts env body);
          env.loops <- List.tl env.loops;
          let step_start = env.em.len in
          (match step with
          | Some st -> (
              match stmt_charge cfg st with
              | Some (tg, c) when tg = tag && not (closes_run st) ->
                  let tot = float_of_int c +. iter_cost in
                  if tot <> 0.0 then ins (I_charge (tag, tot));
                  lower_stmt ~self_charge:false env st
              | _ ->
                  lower_stmt env st;
                  charge_iter ())
          | None -> charge_iter ());
          (match cond with
          | Some c ->
              let jt = lower_cond_jt env c in
              patch_target env.em jt body_top
          | None -> ignore (emit env.em (I_jump body_top)));
          let end_ = env.em.len in
          (match jf with
          | Some j -> patch_target env.em j end_
          | None -> ());
          List.iter (fun pc -> patch_target env.em pc end_) !(ctx.breaks);
          List.iter
            (fun pc -> patch_target env.em pc step_start)
            !(ctx.continues))
  | Return r -> (
      match (env.ret, r) with
      | None, None -> ins I_ret_unit
      | None, Some e ->
          charge_self ();
          let m = mark env in
          let r = lower_expr env e in
          ins (I_ret r);
          reset env m
      | Some rc, _ ->
          (match r with
          | Some e ->
              charge_self ();
              let m = mark env in
              lower_into env rc.r_dst e;
              reset env m
          | None -> if rc.r_used then ins (I_const_unit rc.r_dst));
          rc.r_left <- rc.r_left - 1;
          if not (rc.r_tail && rc.r_left = 0) then
            rc.r_joins <- emit env.em (I_jump (-1)) :: rc.r_joins)
  | Expr_stmt e ->
      charge_self ();
      let m = mark env in
      (match e with
      | Call (f, args) -> lower_call_into ~used:false env (tmp env) f args
      | _ -> ignore (lower_expr env e));
      reset env m
  | Launch l ->
      charge_self ();
      let m = mark env in
      let rg = lower_expr env l.l_grid in
      let tg = tmp env in
      ins (I_cast_dim3 (tg, rg));
      let rb = lower_expr env l.l_block in
      let tb = tmp env in
      ins (I_cast_dim3 (tb, rb));
      ins (I_launch_check (l.l_kernel, tg, tb));
      let argregs = List.map (lower_expr env) l.l_args in
      ins (I_launch (l.l_kernel, tg, tb, Array.of_list argregs));
      reset env m
  | Sync ->
      charge_self ();
      ins I_sync
  | Syncwarp ->
      charge_self ();
      let m = mark env in
      let tu = tmp env in
      ins (I_const_unit tu);
      ins (I_warp (tu, Wk_sync, tu));
      reset env m
  | Threadfence -> charge_self ()
  | Break -> (
      match env.loops with
      | ctx :: _ -> ctx.breaks := emit env.em (I_jump (-1)) :: !(ctx.breaks)
      | [] -> Value.error "in %s: break outside loop" env.fname)
  | Continue -> (
      match env.loops with
      | ctx :: _ -> ctx.continues := emit env.em (I_jump (-1)) :: !(ctx.continues)
      | [] -> Value.error "in %s: continue outside loop" env.fname)

(* Lower a statement list, coalescing charge runs: consecutive
   straight-line statements with the same tag get one [I_charge] for their
   summed cost, then lower with their own charges suppressed. *)
and lower_stmts env ss =
  match ss with
  | [] -> ()
  | s :: rest -> (
      match stmt_charge env.cfg s with
      | None ->
          lower_stmt env s;
          lower_stmts env rest
      | Some (tag, c0) ->
          let total = ref c0 in
          let run = ref [ s ] in
          let rest = ref rest in
          let stop = ref (closes_run s) in
          while not !stop do
            match !rest with
            | s2 :: tl -> (
                match stmt_charge env.cfg s2 with
                | Some (tag2, c2) when tag2 = tag ->
                    total := !total + c2;
                    run := s2 :: !run;
                    rest := tl;
                    if closes_run s2 then stop := true
                | _ -> stop := true)
            | [] -> stop := true
          done;
          if !total <> 0 then
            ignore (emit env.em (I_charge (tag, float_of_int !total)));
          List.iter (lower_stmt ~self_charge:false env) (List.rev !run);
          lower_stmts env !rest)

(* ------------------------------------------------------------------ *)
(* Block-uniform prefixes                                              *)
(* ------------------------------------------------------------------ *)

(* The target of a jump-family instruction; -1 for everything else. *)
let jump_target = function
  | I_cmp_jf (_, _, _, tg)
  | I_cmp_jf_int (_, _, _, tg)
  | I_cmp_jt (_, _, _, tg)
  | I_cmp_jt_int (_, _, _, tg)
  | I_jump tg
  | I_jump_if_false (_, tg)
  | I_jump_if_true (_, tg)
  | I_shared_hit (_, _, tg) ->
      tg
  | _ -> -1

(* [prefix_dests i] is [Some] of the registers [i] writes when [i] may
   sit in a block-uniform prefix — it reads no [threadIdx] and changes
   nothing but its own registers, an unchecked load's pointer being
   checked by [uniform_prefix] — and [None] otherwise. *)
let prefix_dests = function
  | I_const_unit d
  | I_const_int (d, _)
  | I_const_float (d, _)
  | I_const_bool (d, _)
  | I_const_dim3 (d, _, _, _)
  | I_mov (d, _)
  | I_member (d, _, _)
  | I_neg (d, _)
  | I_not (d, _)
  | I_binop (_, d, _, _)
  | I_binop_int (_, d, _, _)
  | I_binop_float (_, d, _, _)
  | I_cast_int (d, _)
  | I_cast_float (d, _)
  | I_cast_bool (d, _)
  | I_cast_dim3 (d, _)
  | I_as_ptr (d, _)
  | I_dim3 (d, _, _, _)
  | I_load (d, _, _, None)
  | I_addr (d, _, _)
  | I_min (d, _, _)
  | I_max (d, _, _)
  | I_abs (d, _)
  | I_float1 (_, d, _)
  | I_pow (d, _, _)
  | I_set_dim3 (d, _, _, _, _, _) ->
      Some [ d ]
  | I_special (d, sp) | I_special_comp (d, sp, _) ->
      if sp = Sp_thread_idx then None else Some [ d ]
  | I_split_dim3 (x, y, z, _) | I_member_load_dim (x, y, z, _, _, None) ->
      Some [ x; y; z ]
  | I_cmp_jf _ | I_cmp_jf_int _ | I_cmp_jt _ | I_cmp_jt_int _ | I_jump _
  | I_jump_if_false _ | I_jump_if_true _ | I_charge _ ->
      Some []
  | I_load (_, _, _, Some _)
  | I_member_load_dim (_, _, _, _, _, Some _)
  | I_store _ | I_atomic _ | I_cas _ | I_malloc _ | I_warp _ | I_warp_bcast _
  | I_call _ | I_ret_unit | I_ret _ | I_member_store_dim _ | I_shared_hit _
  | I_shared_alloc _ | I_launch_check _ | I_launch _ | I_sync ->
      None

(* [uniform_prefix code ~entry ~stop ~nparams ~nregs] finds the
   block-uniform prefix of the kernel lowered at [entry, stop): the
   longest run [entry, e) such that

   - every instruction passes [prefix_dests]: no [threadIdx] read, store,
     atomic, CAS, [malloc], warp op, shared-memory op, call, launch, sync
     or return;
   - every load is unchecked and goes through a pointer parameter the
     run never writes, or through a register that an [as_ptr] of such a
     parameter wrote earlier in the same basic block;
   - its jumps land inside the run or on [e], and no jump after it lands
     inside it or on [e].

   Such a run computes the same registers and costs in every thread of a
   block as long as the buffers it loads from are not written, so the VM
   runs it once per block. It is kept only if it contains a loop: a
   straight-line prefix costs about what copying its registers would.
   Each pass (the admissible run, its register writes, its loads, its
   jumps) is linear in the kernel's length. *)
let uniform_prefix code ~entry ~stop ~nparams ~nregs =
  let e0 = ref entry in
  while !e0 < stop && prefix_dests code.(!e0) <> None do
    incr e0
  done;
  let e0 = !e0 in
  let dests i = Option.get (prefix_dests code.(i)) in
  let written = Array.make nregs false in
  for i = entry to e0 - 1 do
    List.iter (fun r -> written.(r) <- true) (dests i)
  done;
  let param r = r < nparams && not written.(r) in
  let span = stop - entry + 1 in
  let target = Array.make span false in
  for i = entry to stop - 1 do
    let tg = jump_target code.(i) in
    if tg >= entry && tg <= stop then target.(tg - entry) <- true
  done;
  (* Loads: [src.(i - entry)] is the parameter the load at [i] reads
     through; the run stops at the first load through anything else. *)
  let src = Array.make span (-1) in
  let last_def = Array.make nregs (-1) and block = ref entry in
  let e1 = ref e0 and i = ref entry in
  while !i < !e1 do
    let j = !i in
    if target.(j - entry) then block := j;
    (match code.(j) with
    | I_load (_, p, _, _) | I_member_load_dim (_, _, _, p, _, _) ->
        let s =
          if param p then p
          else
            let k = last_def.(p) in
            if k < !block then -1
            else match code.(k) with I_as_ptr (_, s) when param s -> s | _ -> -1
        in
        if s < 0 then e1 := j else src.(j - entry) <- s
    | _ -> ());
    if !e1 > j then List.iter (fun r -> last_def.(r) <- j) (dests j);
    incr i
  done;
  (* Jumps: the longest [e <= e1] whose run only jumps within [entry, e]
     and that no later jump enters. *)
  let later = Array.make span max_int in
  for i = stop - 1 downto entry do
    let tg = jump_target code.(i) in
    later.(i - entry) <-
      (if tg >= 0 then min tg later.(i + 1 - entry) else later.(i + 1 - entry))
  done;
  let e = ref (-1) and reach = ref entry and first_back = ref max_int in
  for cut = entry + 1 to !e1 do
    let tg = jump_target code.(cut - 1) in
    if tg >= 0 then begin
      reach := max !reach tg;
      if tg < cut then first_back := min !first_back (cut - 1)
    end;
    if !reach <= cut && later.(cut - entry) > cut then e := cut
  done;
  let e = !e in
  if e < 0 || !first_back >= e then None
  else
    let regs = Array.make nregs false and params = Array.make nparams false in
    for i = entry to e - 1 do
      List.iter (fun r -> regs.(r) <- true) (dests i);
      if src.(i - entry) >= 0 then params.(src.(i - entry)) <- true
    done;
    let members a =
      Array.of_list (List.filter (Array.get a) (List.init (Array.length a) Fun.id))
    in
    Some { u_end = e; u_regs = members regs; u_params = members params }

(* ------------------------------------------------------------------ *)
(* Packed encoding                                                     *)
(* ------------------------------------------------------------------ *)

(* The VM dispatches on a flat [int array] word stream rather than the
   [instr array]: an opcode word, then the instruction's operand words, all
   on the same cache lines — no per-instruction heap block to chase.
   Register operands stay frame-relative; jump targets become word offsets;
   non-int operands (float literals, member/kernel names, shared-memory
   initializers, source locations) are pooled and referenced by index.

   Opcode table — keep in sync with the dispatch match in {!Vm.interp}
   (cross-engine differential tests catch any drift loudly):

     0 const.unit   [d]              30 max          [d; a; b]
     1 const.int    [d; n]           31 abs          [d; s]
     2 const.float  [d; f#]          32 float1       [fn; d; s]
     3 const.bool   [d; 0/1]         33 pow          [d; a; b]
     4 const.dim3   [d; x; y; z]     34 atomic       [aop; d; p; v]
     5 mov          [d; s]           35 atomic.chk   [aop; d; p; v; l#]
     6 special      [d; sp]          36 cas          [d; p; c; v]
     7 special.comp [d; sp; k]       37 cas.chk      [d; p; c; v; l#]
     8 member       [d; s; k]        38 malloc       [d; s]
     9 neg          [d; s]           39 warp         [d; wk; a]
    10 not          [d; s]           40 warp.bcast   [d; a; l]
    11 binop        [op; d; a; b]    41 call         [d; fi; w@; n; a...]
    12 binop.int    [op; d; a; n]    42 ret.unit     []
    13 binop.float  [op; d; a; f#]   43 ret          [r]
    14 cmp.jf       [op; a; b; @]    44 jump         [@]
    15 cmp.jf.int   [op; a; n; @]    45 jfalse       [r; @]
    16 cmp.jt       [op; a; b; @]    46 jtrue        [r; @]
    17 cmp.jt.int   [op; a; n; @]    47 charge       [tag; f#]
    18 cast.int     [d; s]           48 split.dim3   [dx; dy; dz; sl]
    19 cast.float   [d; s]           49 set.dim3     [sl; s#; dx; dy; dz; v]
    20 cast.bool    [d; s]           50 mload.dim3   [dx; dy; dz; p; i]
    21 cast.dim3    [d; s]           51 mload.chk    [dx; dy; dz; p; i; l#]
    22 as_ptr       [d; s]           52 mstore.dim3  [p; i; s#; x; y; z; v]
    23 dim3         [d; x; y; z]     53 mstore.chk   [... ; l#]
    24 load         [d; p; i]        54 shared.hit   [sl; id; @]
    25 load.chk     [d; p; i; l#]    55 shared.new   [sl; id; sz; v#]
    26 store        [p; i; v]        56 launch.chk   [k#; g; b]
    27 store.chk    [p; i; v; l#]    57 launch       [k#; g; b; n; a...]
    28 addr         [d; p; i]        58 sync         []
    29 min          [d; a; b]

   Superinstructions — rotated-loop bottoms and indexed loads fused to one
   dispatch by the packer (guarded: no jump target may land on an interior
   instruction):

    59 loop.cc   [tag; f#; d; op; a; b; @]   charge; d += 1; cmp.jt
    60 loop.cci  [tag; f#; d; op; a; n; @]   charge; d += 1; cmp.jt.int
    63 as_ptr.ld  [tp; s; ti; si; d]         as_ptr tp, s; cast.int ti, si;
                                             load d, tp, ti
    64 cast.ld    [ti; si; d; p]             cast.int ti, si; load d, p, ti
    70 as_ptr.ldi [tp; s; ti; d]             as_ptr tp, s; load d, tp, ti

   and a basic block's charges carried into its last instruction (see
   [pack]):

    61 charge.jt  [tag; f#; op; a; b; @]     charge; cmp.jt
    62 charge.jti [tag; f#; op; a; n; @]     charge; cmp.jt.int
    66 charge.jf  [tag; f#; op; a; b; @]     charge; cmp.jf
    67 charge.jfi [tag; f#; op; a; n; @]     charge; cmp.jf.int
    68 charge.jump [tag; f#; @]              charge; jump
    69 charge.ret [tag; f#; r]               charge; ret r (ret.unit if r < 0)

   ([f#]/[s#]/[v#]/[l#] are pool indices; [@] a word-offset jump target;
   [w@] the callee's pre-resolved entry word offset; [k] a dim3
   component, 0/1/2 for x/y/z.)

   One word marks where a kernel's block-uniform prefix ends (its
   [bf_uniform]); it precedes the words of the first instruction after
   the prefix and has no [instr]:

    65 uniform.end []                        park: the VM records or skips
                                             the prefix (see {!Vm}) *)

let binop_code : binop -> int = function
  | Add -> 0
  | Sub -> 1
  | Mul -> 2
  | Div -> 3
  | Mod -> 4
  | Lt -> 5
  | Le -> 6
  | Gt -> 7
  | Ge -> 8
  | Eq -> 9
  | Ne -> 10
  | LAnd -> 11
  | LOr -> 12
  | BAnd -> 13
  | BOr -> 14
  | BXor -> 15
  | Shl -> 16
  | Shr -> 17

let special_code = function
  | Sp_thread_idx -> 0
  | Sp_block_idx -> 1
  | Sp_block_dim -> 2
  | Sp_grid_dim -> 3

let float1_code = function
  | F_fabs -> 0
  | F_ceil -> 1
  | F_floor -> 2
  | F_sqrt -> 3
  | F_exp -> 4
  | F_log -> 5

let atomic_code = function
  | A_add -> 0
  | A_sub -> 1
  | A_min -> 2
  | A_max -> 3
  | A_exch -> 4

let warp_code = function
  | Wk_scan_excl -> 0
  | Wk_sum -> 1
  | Wk_max -> 2
  | Wk_sync -> 3

let pack_width = function
  | I_const_unit _ -> 2
  | I_const_int _ | I_const_float _ | I_const_bool _ -> 3
  | I_const_dim3 _ -> 5
  | I_mov _ -> 3
  | I_special _ -> 3
  | I_special_comp _ -> 4
  | I_member _ -> 4
  | I_neg _ | I_not _ -> 3
  | I_binop _ | I_binop_int _ | I_binop_float _ -> 5
  | I_cmp_jf _ | I_cmp_jf_int _ | I_cmp_jt _ | I_cmp_jt_int _ -> 5
  | I_cast_int _ | I_cast_float _ | I_cast_bool _ | I_cast_dim3 _
  | I_as_ptr _ ->
      3
  | I_dim3 _ -> 5
  | I_load (_, _, _, c) -> ( match c with None -> 4 | Some _ -> 5)
  | I_store (_, _, _, c) -> ( match c with None -> 4 | Some _ -> 5)
  | I_addr _ -> 4
  | I_min _ | I_max _ -> 4
  | I_abs _ -> 3
  | I_float1 _ -> 4
  | I_pow _ -> 4
  | I_atomic (_, _, _, _, c) -> ( match c with None -> 5 | Some _ -> 6)
  | I_cas (_, _, _, _, c) -> ( match c with None -> 5 | Some _ -> 6)
  | I_malloc _ -> 3
  | I_warp _ -> 4
  | I_warp_bcast _ -> 4
  | I_call (_, _, args) -> 5 + Array.length args
  | I_ret_unit -> 1
  | I_ret _ -> 2
  | I_jump _ -> 2
  | I_jump_if_false _ | I_jump_if_true _ -> 3
  | I_charge _ -> 0 (* carried; see [pack] *)
  | I_split_dim3 _ -> 5
  | I_set_dim3 _ -> 7
  | I_member_load_dim (_, _, _, _, _, c) -> (
      match c with None -> 6 | Some _ -> 7)
  | I_member_store_dim (_, _, _, _, _, _, _, c) -> (
      match c with None -> 8 | Some _ -> 9)
  | I_shared_hit _ -> 4
  | I_shared_alloc _ -> 5
  | I_launch_check _ -> 4
  | I_launch (_, _, _, args) -> 5 + Array.length args
  | I_sync -> 1

(* Words per packed opcode, the opcode word included; a [call] or
   [launch] also has one word per argument. *)
let op_words =
  [|
    2; 3; 3; 3; 5; 3; 3; 4; 4; 3; (* 0-9 *)
    3; 5; 5; 5; 5; 5; 5; 5; 3; 3; (* 10-19 *)
    3; 3; 3; 5; 4; 5; 4; 5; 4; 4; (* 20-29 *)
    4; 3; 4; 4; 5; 6; 5; 6; 3; 4; (* 30-39 *)
    4; 5; 1; 2; 2; 3; 3; 3; 5; 7; (* 40-49 *)
    6; 7; 8; 9; 4; 5; 4; 5; 1; 8; (* 50-59 *)
    8; 7; 7; 6; 5; 1; 7; 7; 4; 4; (* 60-69 *)
    5; (* 70 *)
  |]

let packed_width ops w =
  let op = ops.(w) in
  op_words.(op) + if op = 41 || op = 57 then ops.(w + 4) else 0

(* [pack code funcs] flattens [code]; [funcs] must already have their
   [bf_entry] set (call targets are resolved to word offsets here).

   The packer fuses two families of sequences into one dispatch:

     charge; d = d + 1; cmp.jt ...  ->  loop.cc / loop.cci   (For bottoms)
     as_ptr tp; cast.int ti; load   ->  as_ptr.ld  (a[j], j a variable)
     as_ptr tp; load                ->  as_ptr.ldi (a[i], i int-valued)
     cast.int ti; load              ->  cast.ld    (a[e], the index coercion)

   only when no jump target (or function entry/followup, or the end of a
   block-uniform prefix) lands on an interior instruction — a [continue]
   into a For step keeps the unfused encoding. A load fuses only
   unchecked, reading exactly the temporaries the coercions just wrote,
   and those must be distinct registers (for [as_ptr.ldi], the pointer
   temporary and the index). The fused VM arms run the exact
   sub-step bodies in the same order.

   It also carries each charge down its basic block. A thread's costs are
   read only where it launches ([lr_issue_cost]), where a block records
   its uniform prefix, and when the block ends; a raise discards them.
   So a charge may move later past instructions that cannot read them,
   and it merges with a later charge of the same tag (amounts are integer
   cycles, so sums are exact). It stops at the block's compare-branch,
   jump or return and is fused into it ([charge.*] above, or a [loop.cc]
   head), or, before a jump target, call, launch, launch check, warp op,
   sync, [shared.hit], [jfalse]/[jtrue] or a charge of another tag, is
   emitted as a [charge] after the instruction before it. [bp_code]
   keeps every charge where the lowering put it. Fusion and carrying
   change dispatch counts and nothing else. *)
let pack (code : instr array) (funcs : func array) =
  let n = Array.length code in
  let target = Array.make (n + 1) false in
  let mark tg = target.(tg) <- true in
  Array.iter (fun i -> let tg = jump_target i in if tg >= 0 then mark tg) code;
  let prefix_end = Array.make (n + 1) false in
  Array.iter
    (fun f ->
      mark f.bf_entry;
      (match f.bf_followup with Some e -> mark e | None -> ());
      match f.bf_uniform with
      | Some u ->
          mark u.u_end;
          prefix_end.(u.u_end) <- true
      | None -> ())
    funcs;
  (* fused.(i): packed opcode of the superinstruction starting at [i], 0 if
     [i] packs alone, -1 if consumed by a preceding superinstruction. *)
  let fused = Array.make n 0 in
  let i = ref 0 in
  while !i < n do
    let j = !i in
    let nxt k = if j + k < n && not target.(j + k) then Some code.(j + k) else None in
    let len, sop =
      match code.(j) with
      | I_charge _ -> (
          match (nxt 1, nxt 2) with
          | Some (I_binop_int (Add, d, a, 1)), Some (I_cmp_jt _) when d = a ->
              (3, 59)
          | Some (I_binop_int (Add, d, a, 1)), Some (I_cmp_jt_int _) when d = a
            ->
              (3, 60)
          | _ -> (1, 0))
      | I_as_ptr (tp, _) -> (
          match (nxt 1, nxt 2) with
          | Some (I_cast_int (ti, _)), Some (I_load (_, p, ix, None))
            when p = tp && ix = ti && tp <> ti ->
              (3, 63)
          | Some (I_load (_, p, ix, None)), _ when p = tp && ix <> tp -> (2, 70)
          | _ -> (1, 0))
      | I_cast_int (ti, _) -> (
          match nxt 1 with
          | Some (I_load (_, p, ix, None)) when ix = ti && p <> ti -> (2, 64)
          | _ -> (1, 0))
      | _ -> (1, 0)
    in
    if len > 1 then begin
      fused.(j) <- sop;
      for k = j + 1 to j + len - 1 do
        fused.(k) <- -1
      done
    end;
    i := j + len
  done;
  (* Charge carrying. [ctag.(i)]/[camt.(i)]: the charge fused into the
     terminator or [loop.cc] head at [i] (tag -1: none); [ftag.(i)]/
     [famt.(i)]: a [charge] emitted after [i]'s own words. *)
  let ctag = Array.make n (-1) and camt = Array.make n 0.0 in
  let ftag = Array.make n (-1) and famt = Array.make n 0.0 in
  let ptag = ref (-1) and pamt = ref 0.0 in
  let flush_before i =
    if !ptag >= 0 then begin
      ftag.(i - 1) <- !ptag;
      famt.(i - 1) <- !pamt;
      ptag := -1
    end
  in
  let take i tag c =
    if !ptag <> tag then flush_before i;
    ctag.(i) <- tag;
    camt.(i) <- (if !ptag = tag then !pamt +. c else c);
    ptag := -1
  in
  for i = 0 to n - 1 do
    if target.(i) then flush_before i;
    match (fused.(i), code.(i)) with
    | (59 | 60), I_charge (tag, c) -> take i tag c
    | 0, I_charge (tag, c) ->
        if !ptag = tag then pamt := !pamt +. c
        else begin
          flush_before i;
          ptag := tag;
          pamt := c
        end
    | ( 0,
        ( I_cmp_jf _ | I_cmp_jf_int _ | I_cmp_jt _ | I_cmp_jt_int _ | I_jump _
        | I_ret _ | I_ret_unit ) ) ->
        if !ptag >= 0 then take i !ptag 0.0
    | ( 0,
        ( I_call _ | I_launch _ | I_launch_check _ | I_warp _ | I_warp_bcast _
        | I_sync | I_shared_hit _ | I_jump_if_false _ | I_jump_if_true _ ) ) ->
        flush_before i
    | _ -> ()
  done;
  assert (!ptag < 0);
  let width i =
    Bool.to_int prefix_end.(i)
    + (if ftag.(i) >= 0 then 3 else 0)
    +
    match fused.(i) with
    | -1 -> 0
    | 59 | 60 -> 8
    | 63 -> 6
    | 64 | 70 -> 5
    | _ -> (
        match code.(i) with
        | I_ret_unit when ctag.(i) >= 0 -> 4
        | ins -> pack_width ins + if ctag.(i) >= 0 then 2 else 0)
  in
  let woff = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    woff.(i + 1) <- woff.(i) + width i
  done;
  let ops = Array.make woff.(n) 0 in
  let pool () =
    let items = ref [] and count = ref 0 in
    let add x =
      let i = !count in
      incr count;
      items := x :: !items;
      i
    in
    (items, add)
  in
  let fpool, addf = pool () in
  let spool, adds = pool () in
  let vpool, addv = pool () in
  let lpool, addl = pool () in
  let w = ref 0 in
  let put x =
    ops.(!w) <- x;
    incr w
  in
  (* The opcode of a terminator: [fused] with its carried charge's
     operands when it has one, else [plain]. *)
  let put_op i ~fused ~plain =
    if ctag.(i) >= 0 then begin
      put fused;
      put ctag.(i);
      put (addf camt.(i))
    end
    else put plain
  in
  let put_cmp_jt i =
    match code.(i) with
    | I_cmp_jt (op, a, b, tg) | I_cmp_jt_int (op, a, b, tg) ->
        put (binop_code op);
        put a;
        put b;
        put woff.(tg)
    | _ -> assert false
  in
  for i = 0 to n - 1 do
    if prefix_end.(i) then put 65;
    (match fused.(i) with
    | -1 -> ()
    | (59 | 60) as sop ->
        put sop;
        put ctag.(i);
        put (addf camt.(i));
        (match code.(i + 1) with
        | I_binop_int (_, d, _, _) -> put d
        | _ -> assert false);
        put_cmp_jt (i + 2)
    | 63 -> (
        put 63;
        match (code.(i), code.(i + 1), code.(i + 2)) with
        | I_as_ptr (tp, s), I_cast_int (ti, si), I_load (d, _, _, _) ->
            put tp;
            put s;
            put ti;
            put si;
            put d
        | _ -> assert false)
    | 64 -> (
        put 64;
        match (code.(i), code.(i + 1)) with
        | I_cast_int (ti, si), I_load (d, p, _, _) ->
            put ti;
            put si;
            put d;
            put p
        | _ -> assert false)
    | 70 -> (
        put 70;
        match (code.(i), code.(i + 1)) with
        | I_as_ptr (tp, s), I_load (d, _, ti, _) ->
            put tp;
            put s;
            put ti;
            put d
        | _ -> assert false)
    | _ -> (
    match code.(i) with
    | I_const_unit d ->
        put 0;
        put d
    | I_const_int (d, x) ->
        put 1;
        put d;
        put x
    | I_const_float (d, f) ->
        put 2;
        put d;
        put (addf f)
    | I_const_bool (d, bv) ->
        put 3;
        put d;
        put (if bv then 1 else 0)
    | I_const_dim3 (d, x, y, z) ->
        put 4;
        put d;
        put x;
        put y;
        put z
    | I_mov (d, s) ->
        put 5;
        put d;
        put s
    | I_special (d, sp) ->
        put 6;
        put d;
        put (special_code sp)
    | I_special_comp (d, sp, f) ->
        put 7;
        put d;
        put (special_code sp);
        put (component_code f)
    | I_member (d, s, f) ->
        put 8;
        put d;
        put s;
        put (component_code f)
    | I_neg (d, s) ->
        put 9;
        put d;
        put s
    | I_not (d, s) ->
        put 10;
        put d;
        put s
    | I_binop (op, d, a, b) ->
        put 11;
        put (binop_code op);
        put d;
        put a;
        put b
    | I_binop_int (op, d, a, x) ->
        put 12;
        put (binop_code op);
        put d;
        put a;
        put x
    | I_binop_float (op, d, a, f) ->
        put 13;
        put (binop_code op);
        put d;
        put a;
        put (addf f)
    | I_cmp_jf (op, a, b, tg) ->
        put_op i ~fused:66 ~plain:14;
        put (binop_code op);
        put a;
        put b;
        put woff.(tg)
    | I_cmp_jf_int (op, a, x, tg) ->
        put_op i ~fused:67 ~plain:15;
        put (binop_code op);
        put a;
        put x;
        put woff.(tg)
    | I_cmp_jt _ ->
        put_op i ~fused:61 ~plain:16;
        put_cmp_jt i
    | I_cmp_jt_int _ ->
        put_op i ~fused:62 ~plain:17;
        put_cmp_jt i
    | I_cast_int (d, s) ->
        put 18;
        put d;
        put s
    | I_cast_float (d, s) ->
        put 19;
        put d;
        put s
    | I_cast_bool (d, s) ->
        put 20;
        put d;
        put s
    | I_cast_dim3 (d, s) ->
        put 21;
        put d;
        put s
    | I_as_ptr (d, s) ->
        put 22;
        put d;
        put s
    | I_dim3 (d, x, y, z) ->
        put 23;
        put d;
        put x;
        put y;
        put z
    | I_load (d, p, ix, None) ->
        put 24;
        put d;
        put p;
        put ix
    | I_load (d, p, ix, Some l) ->
        put 25;
        put d;
        put p;
        put ix;
        put (addl l)
    | I_store (p, ix, v, None) ->
        put 26;
        put p;
        put ix;
        put v
    | I_store (p, ix, v, Some l) ->
        put 27;
        put p;
        put ix;
        put v;
        put (addl l)
    | I_addr (d, p, ix) ->
        put 28;
        put d;
        put p;
        put ix
    | I_min (d, a, b) ->
        put 29;
        put d;
        put a;
        put b
    | I_max (d, a, b) ->
        put 30;
        put d;
        put a;
        put b
    | I_abs (d, s) ->
        put 31;
        put d;
        put s
    | I_float1 (fn, d, s) ->
        put 32;
        put (float1_code fn);
        put d;
        put s
    | I_pow (d, a, b) ->
        put 33;
        put d;
        put a;
        put b
    | I_atomic (aop, d, p, v, None) ->
        put 34;
        put (atomic_code aop);
        put d;
        put p;
        put v
    | I_atomic (aop, d, p, v, Some l) ->
        put 35;
        put (atomic_code aop);
        put d;
        put p;
        put v;
        put (addl l)
    | I_cas (d, p, c, v, None) ->
        put 36;
        put d;
        put p;
        put c;
        put v
    | I_cas (d, p, c, v, Some l) ->
        put 37;
        put d;
        put p;
        put c;
        put v;
        put (addl l)
    | I_malloc (d, s) ->
        put 38;
        put d;
        put s
    | I_warp (d, wk, a) ->
        put 39;
        put d;
        put (warp_code wk);
        put a
    | I_warp_bcast (d, a, l) ->
        put 40;
        put d;
        put a;
        put l
    | I_call (d, fi, args) ->
        put 41;
        put d;
        put fi;
        put woff.(funcs.(fi).bf_entry);
        put (Array.length args);
        Array.iter put args
    | I_ret_unit ->
        put_op i ~fused:69 ~plain:42;
        if ctag.(i) >= 0 then put (-1)
    | I_ret r ->
        put_op i ~fused:69 ~plain:43;
        put r
    | I_jump tg ->
        put_op i ~fused:68 ~plain:44;
        put woff.(tg)
    | I_jump_if_false (r, tg) ->
        put 45;
        put r;
        put woff.(tg)
    | I_jump_if_true (r, tg) ->
        put 46;
        put r;
        put woff.(tg)
    | I_charge _ -> ()
    | I_split_dim3 (x, y, z, sl) ->
        put 48;
        put x;
        put y;
        put z;
        put sl
    | I_set_dim3 (sl, f, x, y, z, v) ->
        put 49;
        put sl;
        put (adds f);
        put x;
        put y;
        put z;
        put v
    | I_member_load_dim (x, y, z, p, ix, None) ->
        put 50;
        put x;
        put y;
        put z;
        put p;
        put ix
    | I_member_load_dim (x, y, z, p, ix, Some l) ->
        put 51;
        put x;
        put y;
        put z;
        put p;
        put ix;
        put (addl l)
    | I_member_store_dim (p, ix, f, x, y, z, v, None) ->
        put 52;
        put p;
        put ix;
        put (adds f);
        put x;
        put y;
        put z;
        put v
    | I_member_store_dim (p, ix, f, x, y, z, v, Some l) ->
        put 53;
        put p;
        put ix;
        put (adds f);
        put x;
        put y;
        put z;
        put v;
        put (addl l)
    | I_shared_hit (sl, id, tg) ->
        put 54;
        put sl;
        put id;
        put woff.(tg)
    | I_shared_alloc (sl, id, sz, dv) ->
        put 55;
        put sl;
        put id;
        put sz;
        put (addv dv)
    | I_launch_check (k, g, b) ->
        put 56;
        put (adds k);
        put g;
        put b
    | I_launch (k, g, b, args) ->
        put 57;
        put (adds k);
        put g;
        put b;
        put (Array.length args);
        Array.iter put args
    | I_sync -> put 58));
    if ftag.(i) >= 0 then begin
      put 47;
      put ftag.(i);
      put (addf famt.(i))
    end;
    assert (!w = woff.(i + 1))
  done;
  ( ops,
    woff,
    Array.of_list (List.rev !fpool),
    Array.of_list (List.rev !spool),
    Array.of_list (List.rev !vpool),
    Array.of_list (List.rev !lpool) )

(* ------------------------------------------------------------------ *)
(* Program lowering                                                    *)
(* ------------------------------------------------------------------ *)

let compile (cfg : Config.t) (prog : program) : prog =
  Typecheck.check prog;
  let funcs =
    Array.of_list
      (List.map
         (fun (f : Ast.func) ->
           {
             bf_name = f.f_name;
             bf_kind = f.f_kind;
             bf_nregs = 0;
             bf_nparams = List.length f.f_params;
             bf_contains_launch = Ast_util.contains_launch f.f_body;
             bf_is_serial =
               f.f_kind = Device && Runtime.has_serial_suffix f.f_name;
             bf_entry = 0;
             bf_followup = None;
             bf_uniform = None;
           })
         prog)
  in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i bf -> Hashtbl.add index bf.bf_name i) funcs;
  let facts = Array.of_list (List.map facts_of prog) in
  let em = { buf = Array.make 256 I_ret_unit; len = 0 } in
  List.iteri
    (fun fi (f : Ast.func) ->
      let env =
        {
          funcs;
          facts;
          index;
          em;
          slots = [];
          dims = [];
          ints = facts.(fi).fa_ints;
          next_reg = 0;
          max_reg = 0;
          shared_ids = 0;
          cfg;
          fname = f.f_name;
          cur_loc = Loc.dummy;
          loops = [];
          ret = None;
        }
      in
      List.iter (fun p -> ignore (bind env p.p_name)) f.f_params;
      let entry = em.len in
      lower_stmts env f.f_body;
      ignore (emit em I_ret_unit);
      let followup =
        Option.map
          (fun ss ->
            (* The followup shares the body's environment: top-level
               body locals stay visible. *)
            let fe = em.len in
            lower_stmts env ss;
            ignore (emit em I_ret_unit);
            fe)
          f.f_host_followup
      in
      let bf = funcs.(fi) in
      bf.bf_entry <- entry;
      bf.bf_followup <- followup;
      bf.bf_nregs <- env.max_reg)
    prog;
  let code = Array.sub em.buf 0 em.len in
  Array.iteri
    (fun fi bf ->
      if bf.bf_kind = Global then
        let stop =
          if fi + 1 < Array.length funcs then funcs.(fi + 1).bf_entry
          else Array.length code
        in
        bf.bf_uniform <-
          uniform_prefix code ~entry:bf.bf_entry ~stop ~nparams:bf.bf_nparams
            ~nregs:bf.bf_nregs)
    funcs;
  let ops, woff, fpool, spool, vpool, lpool = pack code funcs in
  {
    bp_code = code;
    bp_funcs = funcs;
    bp_index = index;
    bp_ast = prog;
    bp_ops = ops;
    bp_woff = woff;
    bp_fpool = fpool;
    bp_spool = spool;
    bp_vpool = vpool;
    bp_lpool = lpool;
  }

(* ------------------------------------------------------------------ *)
(* Disassembler                                                        *)
(* ------------------------------------------------------------------ *)

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Mod -> "mod"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | Eq -> "eq"
  | Ne -> "ne"
  | LAnd -> "land"
  | LOr -> "lor"
  | BAnd -> "band"
  | BOr -> "bor"
  | BXor -> "bxor"
  | Shl -> "shl"
  | Shr -> "shr"

let special_name = function
  | Sp_thread_idx -> "threadIdx"
  | Sp_block_idx -> "blockIdx"
  | Sp_block_dim -> "blockDim"
  | Sp_grid_dim -> "gridDim"

let float1_name = function
  | F_fabs -> "fabs"
  | F_ceil -> "ceil"
  | F_floor -> "floor"
  | F_sqrt -> "sqrt"
  | F_exp -> "exp"
  | F_log -> "log"

let atomic_name = function
  | A_add -> "add"
  | A_sub -> "sub"
  | A_min -> "min"
  | A_max -> "max"
  | A_exch -> "exch"

let warp_name = function
  | Wk_scan_excl -> "scan_excl"
  | Wk_sum -> "sum"
  | Wk_max -> "max"
  | Wk_sync -> "sync"

let pp_check ppf = function
  | None -> ()
  | Some loc -> Fmt.pf ppf "  !%a" Loc.pp loc

let pp_instr funcs ppf = function
  | I_const_unit d -> Fmt.pf ppf "const.unit  r%d" d
  | I_const_int (d, n) -> Fmt.pf ppf "const.int   r%d, %d" d n
  | I_const_float (d, f) -> Fmt.pf ppf "const.float r%d, %h" d f
  | I_const_bool (d, b) -> Fmt.pf ppf "const.bool  r%d, %b" d b
  | I_const_dim3 (d, x, y, z) ->
      Fmt.pf ppf "const.dim3  r%d, (%d,%d,%d)" d x y z
  | I_mov (d, s) -> Fmt.pf ppf "mov         r%d, r%d" d s
  | I_special (d, sp) -> Fmt.pf ppf "special     r%d, %s" d (special_name sp)
  | I_special_comp (d, sp, f) ->
      Fmt.pf ppf "special     r%d, %s.%s" d (special_name sp) f
  | I_member (d, s, f) -> Fmt.pf ppf "member      r%d, r%d.%s" d s f
  | I_neg (d, s) -> Fmt.pf ppf "neg         r%d, r%d" d s
  | I_not (d, s) -> Fmt.pf ppf "not         r%d, r%d" d s
  | I_binop (op, d, a, b) ->
      Fmt.pf ppf "%-11s r%d, r%d, r%d" (binop_name op) d a b
  | I_binop_int (op, d, a, n) ->
      Fmt.pf ppf "%-11s r%d, r%d, %d" (binop_name op ^ ".i") d a n
  | I_binop_float (op, d, a, f) ->
      Fmt.pf ppf "%-11s r%d, r%d, %h" (binop_name op ^ ".f") d a f
  | I_cmp_jf (op, a, b, n) ->
      Fmt.pf ppf "%-11s r%d, r%d, @%d" (binop_name op ^ ".jf") a b n
  | I_cmp_jf_int (op, a, i, n) ->
      Fmt.pf ppf "%-11s r%d, %d, @%d" (binop_name op ^ ".jfi") a i n
  | I_cmp_jt (op, a, b, n) ->
      Fmt.pf ppf "%-11s r%d, r%d, @%d" (binop_name op ^ ".jt") a b n
  | I_cmp_jt_int (op, a, i, n) ->
      Fmt.pf ppf "%-11s r%d, %d, @%d" (binop_name op ^ ".jti") a i n
  | I_cast_int (d, s) -> Fmt.pf ppf "cast.int    r%d, r%d" d s
  | I_cast_float (d, s) -> Fmt.pf ppf "cast.float  r%d, r%d" d s
  | I_cast_bool (d, s) -> Fmt.pf ppf "cast.bool   r%d, r%d" d s
  | I_cast_dim3 (d, s) -> Fmt.pf ppf "cast.dim3   r%d, r%d" d s
  | I_as_ptr (d, s) -> Fmt.pf ppf "as_ptr      r%d, r%d" d s
  | I_dim3 (d, x, y, z) -> Fmt.pf ppf "dim3        r%d, r%d, r%d, r%d" d x y z
  | I_load (d, p, i, c) ->
      Fmt.pf ppf "load        r%d, [r%d + r%d]%a" d p i pp_check c
  | I_store (p, i, v, c) ->
      Fmt.pf ppf "store       [r%d + r%d], r%d%a" p i v pp_check c
  | I_addr (d, p, i) -> Fmt.pf ppf "addr        r%d, [r%d + r%d]" d p i
  | I_min (d, a, b) -> Fmt.pf ppf "min         r%d, r%d, r%d" d a b
  | I_max (d, a, b) -> Fmt.pf ppf "max         r%d, r%d, r%d" d a b
  | I_abs (d, s) -> Fmt.pf ppf "abs         r%d, r%d" d s
  | I_float1 (fn, d, s) -> Fmt.pf ppf "%-11s r%d, r%d" (float1_name fn) d s
  | I_pow (d, a, b) -> Fmt.pf ppf "pow         r%d, r%d, r%d" d a b
  | I_atomic (op, d, p, v, c) ->
      Fmt.pf ppf "atomic.%-4s r%d, [r%d], r%d%a" (atomic_name op) d p v
        pp_check c
  | I_cas (d, p, cm, v, c) ->
      Fmt.pf ppf "atomic.cas  r%d, [r%d], r%d, r%d%a" d p cm v pp_check c
  | I_malloc (d, s) -> Fmt.pf ppf "malloc      r%d, r%d" d s
  | I_warp (d, wk, a) ->
      Fmt.pf ppf "warp.%-6s r%d, r%d" (warp_name wk) d a
  | I_warp_bcast (d, a, l) ->
      Fmt.pf ppf "warp.bcast  r%d, r%d, lane=r%d" d a l
  | I_call (d, fi, args) ->
      Fmt.pf ppf "call        r%d, %s(%a)" d funcs.(fi).bf_name
        Fmt.(array ~sep:(any ", ") (fmt "r%d"))
        args
  | I_ret_unit -> Fmt.pf ppf "ret.unit"
  | I_ret r -> Fmt.pf ppf "ret         r%d" r
  | I_jump n -> Fmt.pf ppf "jump        @%d" n
  | I_jump_if_false (r, n) -> Fmt.pf ppf "jfalse      r%d, @%d" r n
  | I_jump_if_true (r, n) -> Fmt.pf ppf "jtrue       r%d, @%d" r n
  | I_charge (tag, c) -> Fmt.pf ppf "charge      tag%d, %g" tag c
  | I_split_dim3 (x, y, z, sl) ->
      Fmt.pf ppf "split.dim3  r%d, r%d, r%d, r%d" x y z sl
  | I_set_dim3 (sl, f, x, y, z, v) ->
      Fmt.pf ppf "set.dim3    r%d.%s, (r%d,r%d,r%d), r%d" sl f x y z v
  | I_member_load_dim (x, y, z, p, i, c) ->
      Fmt.pf ppf "mload.dim3  (r%d,r%d,r%d), [r%d + r%d]%a" x y z p i
        pp_check c
  | I_member_store_dim (p, i, f, x, y, z, v, c) ->
      Fmt.pf ppf "mstore.dim3 [r%d + r%d].%s, (r%d,r%d,r%d), r%d%a" p i f x y
        z v pp_check c
  | I_shared_hit (sl, id, tgt) ->
      Fmt.pf ppf "shared.hit  r%d, id=%d, @%d" sl id tgt
  | I_shared_alloc (sl, id, sz, dv) ->
      Fmt.pf ppf "shared.new  r%d, id=%d, r%d, init=%a" sl id sz Value.pp dv
  | I_launch_check (k, g, b) ->
      Fmt.pf ppf "launch.chk  %s, grid=r%d, block=r%d" k g b
  | I_launch (k, g, b, args) ->
      Fmt.pf ppf "launch      %s<<<r%d, r%d>>>(%a)" k g b
        Fmt.(array ~sep:(any ", ") (fmt "r%d"))
        args
  | I_sync -> Fmt.pf ppf "sync"

let pp ppf (p : prog) =
  let n = Array.length p.bp_funcs in
  Array.iteri
    (fun fi bf ->
      let kind =
        match bf.bf_kind with Global -> "__global__" | Device -> "__device__"
      in
      let hi =
        if fi + 1 < n then p.bp_funcs.(fi + 1).bf_entry
        else Array.length p.bp_code
      in
      Fmt.pf ppf "%s %s  params=%d regs=%d%s%s@." kind bf.bf_name bf.bf_nparams
        bf.bf_nregs
        (if bf.bf_contains_launch then " [cdp]" else "")
        (if bf.bf_is_serial then " [serial]" else "");
      for pc = bf.bf_entry to hi - 1 do
        (match bf.bf_followup with
        | Some fe when fe = pc -> Fmt.pf ppf "  -- host followup --@."
        | _ -> ());
        Fmt.pf ppf "  %4d: %a@." pc (pp_instr p.bp_funcs) p.bp_code.(pc)
      done;
      if fi + 1 < n then Fmt.pf ppf "@.")
    p.bp_funcs

let disassemble (p : prog) : string = Fmt.str "%a" pp p
