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
    mark, not the lexical slot count. *)

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

type func = {
  bf_name : string;
  bf_kind : func_kind;
  mutable bf_nregs : int;  (** Register high-water mark (body + followup). *)
  bf_nparams : int;
  bf_contains_launch : bool;
  bf_is_serial : bool;
  mutable bf_entry : int;  (** Body entry pc. *)
  mutable bf_followup : int option;  (** Host-followup entry pc. *)
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

type lenv = {
  funcs : func array;
  index : (string, int) Hashtbl.t;
  em : emitter;
  mutable slots : (string * int) list;  (** Innermost binding first. *)
  mutable next_reg : int;
  mutable max_reg : int;
  mutable shared_ids : int;
  cfg : Config.t;
  fname : string;
  mutable cur_loc : Loc.t;
  mutable loops : loop_ctx list;  (** Innermost loop first. *)
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
(* Expression lowering                                                 *)
(* ------------------------------------------------------------------ *)

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
  | Var x -> slot_of env x "use"
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
      let ri = lower_expr env i in
      let ti = tmp env in
      ins (I_cast_int (ti, ri));
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
      (* Tuple construction evaluates right-to-left: z (then its as_int),
         then y, then x. *)
      let rz = lower_expr env z in
      let tz = tmp env in
      ins (I_cast_int (tz, rz));
      let ry = lower_expr env y in
      let ty = tmp env in
      ins (I_cast_int (ty, ry));
      let rx = lower_expr env x in
      let tx = tmp env in
      ins (I_cast_int (tx, rx));
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
      let ri = lower_expr env i in
      let ti = tmp env in
      ins (I_cast_int (ti, ri));
      let d = tmp env in
      ins (I_addr (d, tp, ti));
      d
  | Var x ->
      Value.error
        "in %s: cannot take the address of local variable %S (MiniCU atomics \
         require a pointer element, e.g. &a[i])"
        env.fname x
  | _ -> Value.error "in %s: '&' requires an indexable lvalue" env.fname

and lower_call env f args : int =
  (* The result register is allocated up front so [lower_into] can pass a
     variable's slot instead; operand temporaries number after it. *)
  let d = tmp env in
  lower_call_into env d f args;
  d

(* Every call-like instruction writes its destination strictly after all
   its operands are read (and after memory effects), so [d] may be a live
   variable slot that also appears among the operands. *)
and lower_call_into env d f args : unit =
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
      let rl = lower_expr env (nth 1) in
      let tl = tmp env in
      ins (I_cast_int (tl, rl));
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
          let regs = List.map (lower_expr env) args in
          ins (I_call (d, fi, Array.of_list regs))
      | None -> Value.error "in %s: unknown function %S" env.fname f)

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
  | Var x ->
      let s = slot_of env x "use" in
      if s <> dst then ins (I_mov (dst, s))
  | Member (Var "threadIdx", f) -> ins (I_special_comp (dst, Sp_thread_idx, f))
  | Member (Var "blockIdx", f) -> ins (I_special_comp (dst, Sp_block_idx, f))
  | Member (Var "blockDim", f) -> ins (I_special_comp (dst, Sp_block_dim, f))
  | Member (Var "gridDim", f) -> ins (I_special_comp (dst, Sp_grid_dim, f))
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
      let ri = lower_expr env i in
      let ti = tmp env in
      ins (I_cast_int (ti, ri));
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
      let rz = lower_expr env z in
      let tz = tmp env in
      ins (I_cast_int (tz, rz));
      let ry = lower_expr env y in
      let ty = tmp env in
      ins (I_cast_int (ty, ry));
      let rx = lower_expr env x in
      let tx = tmp env in
      ins (I_cast_int (tx, rx));
      ins (I_dim3 (dst, tx, ty, tz))
  | Addr_of (Index (p, i)) ->
      let rp = lower_expr env p in
      let tp = tmp env in
      ins (I_as_ptr (tp, rp));
      let ri = lower_expr env i in
      let ti = tmp env in
      ins (I_cast_int (ti, ri));
      ins (I_addr (dst, tp, ti))
  | Addr_of lv ->
      (* Non-indexable lvalues: reuse [lower_addr] for its diagnostics. *)
      ignore (lower_addr env lv)
  | Call (f, args) -> lower_call_into env dst f args

(* ------------------------------------------------------------------ *)
(* Statement lowering                                                  *)
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

let rec lower_stmt ?(self_charge = true) env (s : stmt) : unit =
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
          let ri = lower_expr env i in
          let ti = tmp env in
          ins (I_cast_int (ti, ri));
          let rv = lower_expr env e in
          ins (I_store (tp, ti, rv, check_loc env))
      | Member (Var x, f) when not (is_reserved_var x) ->
          let sl = slot_of env x "member assignment" in
          let dx = tmp env and dy = tmp env and dz = tmp env in
          ins (I_split_dim3 (dx, dy, dz, sl));
          let rv = lower_expr env e in
          let tn = tmp env in
          ins (I_cast_int (tn, rv));
          ins (I_set_dim3 (sl, f, dx, dy, dz, tn))
      | Member (Index (p, i), f) ->
          let rp = lower_expr env p in
          let tp = tmp env in
          ins (I_as_ptr (tp, rp));
          let ri = lower_expr env i in
          let ti = tmp env in
          ins (I_cast_int (ti, ri));
          let dx = tmp env and dy = tmp env and dz = tmp env in
          ins (I_member_load_dim (dx, dy, dz, tp, ti, check_loc env));
          let rv = lower_expr env e in
          let tn = tmp env in
          ins (I_cast_int (tn, rv));
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
  | Return None -> ins I_ret_unit
  | Return (Some e) ->
      charge_self ();
      let m = mark env in
      let r = lower_expr env e in
      ins (I_ret r);
      reset env m
  | Expr_stmt e ->
      charge_self ();
      let m = mark env in
      ignore (lower_expr env e);
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
     7 special.comp [d; sp; s#]      37 cas.chk      [d; p; c; v; l#]
     8 member       [d; s; s#]       38 malloc       [d; s]
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
    61 charge.jt  [tag; f#; op; a; b; @]     charge; cmp.jt
    62 charge.jti [tag; f#; op; a; n; @]     charge; cmp.jt.int
    63 as_ptr.ld  [tp; s; ti; si; d]         as_ptr tp, s; cast.int ti, si;
                                             load d, tp, ti
    64 cast.ld    [ti; si; d; p]             cast.int ti, si; load d, p, ti

   ([f#]/[s#]/[v#]/[l#] are pool indices; [@] a word-offset jump target;
   [w@] the callee's pre-resolved entry word offset.) *)

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
  | I_charge _ -> 3
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

(* [pack code funcs] flattens [code]; [funcs] must already have their
   [bf_entry] set (call targets are resolved to word offsets here).

   The packer also fuses two families of sequences into one dispatch:

     charge; d = d + 1; cmp.jt ...  ->  loop.cc / loop.cci   (For bottoms)
     charge; cmp.jt ...             ->  charge.jt / charge.jti (While bottoms)
     as_ptr tp; cast.int ti; load   ->  as_ptr.ld  (a[j], j a variable)
     cast.int ti; load              ->  cast.ld    (a[e], the index coercion)

   only when no jump target (or function entry/followup) lands on an
   interior instruction — a [continue] into a For step keeps the unfused
   encoding. A load fuses only unchecked, reading exactly the temporaries
   the coercions just wrote, and those must be distinct registers. The
   fused VM arms run the exact sub-step bodies in the same order, so fusion
   changes dispatch count and nothing else. *)
let pack (code : instr array) (funcs : func array) =
  let n = Array.length code in
  let target = Array.make (n + 1) false in
  let mark tg = target.(tg) <- true in
  Array.iter
    (function
      | I_cmp_jf (_, _, _, tg)
      | I_cmp_jf_int (_, _, _, tg)
      | I_cmp_jt (_, _, _, tg)
      | I_cmp_jt_int (_, _, _, tg)
      | I_jump tg
      | I_jump_if_false (_, tg)
      | I_jump_if_true (_, tg)
      | I_shared_hit (_, _, tg) ->
          mark tg
      | _ -> ())
    code;
  Array.iter
    (fun f ->
      mark f.bf_entry;
      match f.bf_followup with Some e -> mark e | None -> ())
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
          | Some (I_cmp_jt _), _ -> (2, 61)
          | Some (I_cmp_jt_int _), _ -> (2, 62)
          | _ -> (1, 0))
      | I_as_ptr (tp, _) -> (
          match (nxt 1, nxt 2) with
          | Some (I_cast_int (ti, _)), Some (I_load (_, p, ix, None))
            when p = tp && ix = ti && tp <> ti ->
              (3, 63)
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
  let width i =
    match fused.(i) with
    | 0 -> pack_width code.(i)
    | -1 -> 0
    | 59 | 60 -> 8
    | 61 | 62 -> 7
    | 63 -> 6
    | _ -> 5
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
  let put_charge i =
    match code.(i) with
    | I_charge (tag, c) ->
        put tag;
        put (addf c)
    | _ -> assert false
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
    (match fused.(i) with
    | -1 -> ()
    | (59 | 60) as sop ->
        put sop;
        put_charge i;
        (match code.(i + 1) with
        | I_binop_int (_, d, _, _) -> put d
        | _ -> assert false);
        put_cmp_jt (i + 2)
    | (61 | 62) as sop ->
        put sop;
        put_charge i;
        put_cmp_jt (i + 1)
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
        put (adds f)
    | I_member (d, s, f) ->
        put 8;
        put d;
        put s;
        put (adds f)
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
        put 14;
        put (binop_code op);
        put a;
        put b;
        put woff.(tg)
    | I_cmp_jf_int (op, a, x, tg) ->
        put 15;
        put (binop_code op);
        put a;
        put x;
        put woff.(tg)
    | I_cmp_jt (op, a, b, tg) ->
        put 16;
        put (binop_code op);
        put a;
        put b;
        put woff.(tg)
    | I_cmp_jt_int (op, a, x, tg) ->
        put 17;
        put (binop_code op);
        put a;
        put x;
        put woff.(tg)
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
    | I_ret_unit -> put 42
    | I_ret r ->
        put 43;
        put r
    | I_jump tg ->
        put 44;
        put woff.(tg)
    | I_jump_if_false (r, tg) ->
        put 45;
        put r;
        put woff.(tg)
    | I_jump_if_true (r, tg) ->
        put 46;
        put r;
        put woff.(tg)
    | I_charge (tag, c) ->
        put 47;
        put tag;
        put (addf c)
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
           })
         prog)
  in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i bf -> Hashtbl.add index bf.bf_name i) funcs;
  let em = { buf = Array.make 256 I_ret_unit; len = 0 } in
  List.iteri
    (fun fi (f : Ast.func) ->
      let env =
        {
          funcs;
          index;
          em;
          slots = [];
          next_reg = 0;
          max_reg = 0;
          shared_ids = 0;
          cfg;
          fname = f.f_name;
          cur_loc = Loc.dummy;
          loops = [];
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
