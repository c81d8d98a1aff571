(** Flat bytecode/register IR for MiniCU device code: the lowering half of
    the simulator's execution engine, run by {!Vm} over unboxed register
    banks. The lowering fixes the observable semantics — cost charging
    points, runtime error messages, side-effect order — pinned bit for bit
    by the golden suite ([test/test_bytecode.ml]). *)

type special = Sp_thread_idx | Sp_block_idx | Sp_block_dim | Sp_grid_dim

type float1 = F_fabs | F_ceil | F_floor | F_sqrt | F_exp | F_log

type atomic = A_add | A_sub | A_min | A_max | A_exch

type warp_kind = Wk_scan_excl | Wk_sum | Wk_max | Wk_sync

(** Operands are frame-relative register indices; jump targets are absolute
    code indices. A [Loc.t option] is [Some] exactly when lowered under
    [Config.check] — it carries the source location for sanitizer reports
    and selects the instrumented path in the VM. *)
type instr =
  | I_const_unit of int
  | I_const_int of int * int
  | I_const_float of int * float
  | I_const_bool of int * bool
  | I_const_dim3 of int * int * int * int
  | I_mov of int * int
  | I_special of int * special
  | I_special_comp of int * special * string
  | I_member of int * int * string
  | I_neg of int * int
  | I_not of int * int
  | I_binop of Minicu.Ast.binop * int * int * int
  | I_binop_int of Minicu.Ast.binop * int * int * int
      (** op, dst, a, int-literal right operand. *)
  | I_binop_float of Minicu.Ast.binop * int * int * float
  | I_cmp_jf of Minicu.Ast.binop * int * int * int
      (** Fused compare-and-branch: op, a, b, target if false. *)
  | I_cmp_jf_int of Minicu.Ast.binop * int * int * int
      (** op, a, int-literal right operand, target if false. *)
  | I_cmp_jt of Minicu.Ast.binop * int * int * int
      (** op, a, b, target if true — rotated-loop back edges. *)
  | I_cmp_jt_int of Minicu.Ast.binop * int * int * int
  | I_cast_int of int * int
  | I_cast_float of int * int
  | I_cast_bool of int * int
  | I_cast_dim3 of int * int
  | I_as_ptr of int * int
  | I_dim3 of int * int * int * int
  | I_load of int * int * int * Minicu.Loc.t option
  | I_store of int * int * int * Minicu.Loc.t option
  | I_addr of int * int * int
  | I_min of int * int * int
  | I_max of int * int * int
  | I_abs of int * int
  | I_float1 of float1 * int * int
  | I_pow of int * int * int
  | I_atomic of atomic * int * int * int * Minicu.Loc.t option
  | I_cas of int * int * int * int * Minicu.Loc.t option
  | I_malloc of int * int
  | I_warp of int * warp_kind * int
  | I_warp_bcast of int * int * int
  | I_call of int * int * int array
  | I_ret_unit
  | I_ret of int
  | I_jump of int
  | I_jump_if_false of int * int
  | I_jump_if_true of int * int
  | I_charge of int * float
  | I_split_dim3 of int * int * int * int
  | I_set_dim3 of int * string * int * int * int * int
  | I_member_load_dim of int * int * int * int * int * Minicu.Loc.t option
  | I_member_store_dim of
      int * int * string * int * int * int * int * Minicu.Loc.t option
  | I_shared_hit of int * int * int
  | I_shared_alloc of int * int * int * Value.t
  | I_launch_check of string * int * int
  | I_launch of string * int * int * int array
  | I_sync

type func = {
  bf_name : string;
  bf_kind : Minicu.Ast.func_kind;
  mutable bf_nregs : int;
      (** Register high-water mark over body and followup; registers are
          reused across sibling scopes. *)
  bf_nparams : int;
  bf_contains_launch : bool;
      (** Drives {!Config.cdp_entry_cost}. *)
  bf_is_serial : bool;
  mutable bf_entry : int;
  mutable bf_followup : int option;
}

type prog = {
  bp_code : instr array;  (** All functions, lowered contiguously. *)
  bp_funcs : func array;  (** In program order ([bf_entry] ascending). *)
  bp_index : (string, int) Hashtbl.t;
  bp_ast : Minicu.Ast.program;
  bp_ops : int array;
      (** Packed word stream — what {!Vm} actually dispatches on: an opcode
          word then the operand words per instruction, with jump targets as
          word offsets and non-int operands as pool indices (see the opcode
          table in the implementation). *)
  bp_woff : int array;
      (** Instruction index -> word offset into [bp_ops]; length
          [Array.length bp_code + 1]. *)
  bp_fpool : float array;  (** Float literals and charge amounts. *)
  bp_spool : string array;  (** Member and kernel names. *)
  bp_vpool : Value.t array;  (** Shared-memory element initializers. *)
  bp_lpool : Minicu.Loc.t array;  (** Source locations (checked mode). *)
}

val find_func_exn : prog -> string -> func

(** [compile cfg prog] typechecks and lowers a whole program. *)
val compile : Config.t -> Minicu.Ast.program -> prog

(** Pretty-printer for lowered programs: one section per function with
    numbered instructions. Deterministic — used for the golden
    [test/corpus/*.disasm] fixtures. *)
val pp : Format.formatter -> prog -> unit

val disassemble : prog -> string
