(** Abstract syntax for MiniCU, the CUDA-like kernel language the
    dynamic-parallelism optimization passes operate on.

    MiniCU mirrors the subset of CUDA C++ that the paper's transformations
    manipulate: kernels and device functions, dynamic launches
    ([k<<<g, b>>>(args)]), the reserved index/dimension variables, barriers,
    fences, atomics, warp collectives, shared memory, and device [malloc].
    Host code is written in OCaml against {!Gpusim.Device}.

    Statements carry a {!tag} that the simulator uses to attribute executed
    cycles to a category of the paper's Fig. 10 execution-time breakdown. *)

(** {1 Types} *)

type ty =
  | TVoid
  | TInt  (** Models CUDA [int]/[unsigned]. *)
  | TFloat  (** Models CUDA [float]/[double]. *)
  | TBool
  | TDim3  (** CUDA [dim3] triple. *)
  | TPtr of ty  (** Pointer into device global (or shared) memory. *)
[@@deriving show, eq]

(** {1 Operators} *)

type unop = Neg | Not [@@deriving show, eq]

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | LAnd
  | LOr
  | BAnd
  | BOr
  | BXor
  | Shl
  | Shr
[@@deriving show, eq]

(** {1 Expressions} *)

type expr =
  | Int_lit of int
  | Float_lit of float
  | Bool_lit of bool
  | Var of string
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Ternary of expr * expr * expr
  | Index of expr * expr  (** [p\[i\]]. *)
  | Member of expr * string  (** [e.x] — dim3 component access. *)
  | Call of string * expr list  (** Builtin or device-function call. *)
  | Cast of ty * expr
  | Dim3_ctor of expr * expr * expr  (** [dim3(x, y, z)]. *)
  | Addr_of of expr  (** [&p\[i\]] — for atomics. *)
[@@deriving show, eq]

(** {1 Cost-attribution tags} *)

type tag =
  | Tag_none  (** Charged to the grid's default (parent or child). *)
  | Tag_parent
  | Tag_child
  | Tag_agg  (** Aggregation logic (Fig. 7, parent side). *)
  | Tag_disagg  (** Disaggregation logic (Fig. 7, child side). *)
[@@deriving show, eq]

(** {1 Statements} *)

type stmt = {
  sdesc : stmt_desc;
  stag : tag;
  sloc : (Loc.t[@equal fun _ _ -> true] [@opaque]);
      (** Statement's source location ({!Loc.dummy} when generated); exempt
          from derived equality so round-trips compare structurally. *)
}

and stmt_desc =
  | Decl of ty * string * expr option
  | Decl_shared of ty * string * expr
      (** [__shared__ ty x\[size\]] — per-block array. *)
  | Assign of expr * expr  (** Left side must be [Var]/[Index]/[Member]. *)
  | If of expr * stmt list * stmt list
  | For of stmt option * expr option * stmt option * stmt list
  | While of expr * stmt list
  | Return of expr option
  | Expr_stmt of expr
  | Launch of launch  (** Dynamic (device-side) kernel launch. *)
  | Sync  (** [__syncthreads()]. *)
  | Syncwarp  (** [__syncwarp()]. *)
  | Threadfence  (** [__threadfence()]. *)
  | Break
  | Continue

and launch = {
  l_kernel : string;
  l_grid : expr;  (** Int- or dim3-valued. *)
  l_block : expr;
  l_args : expr list;
}
[@@deriving show, eq]

(** {1 Functions and programs} *)

type func_kind = Global  (** [__global__] *) | Device  (** [__device__] *)
[@@deriving show, eq]

type param = { p_ty : ty; p_name : string } [@@deriving show, eq]

type func = {
  f_name : string;
  f_kind : func_kind;
  f_ret : ty;
  f_params : param list;
  f_body : stmt list;
  f_host_followup : stmt list option;
      (** Host-side statements the runtime executes after a grid of this
          kernel drains — used by grid-granularity aggregation, where the
          aggregated launch comes from the host (Section V-A). *)
}
[@@deriving show, eq]

type program = func list [@@deriving show, eq]

(** {1 Constructors and helpers} *)

val stmt : ?tag:tag -> ?loc:Loc.t -> stmt_desc -> stmt

(** [retag_deep tag s] retags [s] and all nested statements, preserving
    existing non-[Tag_none] tags. *)
val retag_deep : tag -> stmt -> stmt

val var : string -> expr
val ( +: ) : expr -> expr -> expr
val ( -: ) : expr -> expr -> expr
val ( *: ) : expr -> expr -> expr
val ( /: ) : expr -> expr -> expr
val ( %: ) : expr -> expr -> expr
val ( <: ) : expr -> expr -> expr
val ( <=: ) : expr -> expr -> expr
val ( >=: ) : expr -> expr -> expr
val ( ==: ) : expr -> expr -> expr
val ( &&: ) : expr -> expr -> expr
val idx : expr -> expr -> expr
val member : expr -> string -> expr
val call : string -> expr list -> expr

(** The CUDA built-in variables: [threadIdx], [blockIdx], [blockDim],
    [gridDim]. *)
val reserved_vars : string list

val is_reserved_var : string -> bool
val find_func : program -> string -> func option
val find_func_exn : program -> string -> func

(** [replace_func p f] replaces the function named [f.f_name], preserving
    order. @raise Invalid_argument if absent. *)
val replace_func : program -> func -> program

(** [add_func_after p ~anchor f] inserts [f] right after [anchor]. *)
val add_func_after : program -> anchor:string -> func -> program
