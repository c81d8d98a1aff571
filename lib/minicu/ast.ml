(** Abstract syntax for MiniCU, the CUDA-like kernel language that the
    dynamic-parallelism optimization passes operate on.

    MiniCU deliberately mirrors the subset of CUDA C++ that the paper's
    transformations manipulate: kernels ([__global__]) and device functions
    ([__device__]), dynamic kernel launches ([k<<<g, b>>>(args)]), the
    reserved index/dimension variables ([threadIdx], [blockIdx], [blockDim],
    [gridDim]), barriers, fences, atomics, and shared memory. Host code is
    written in OCaml against the {!Gpusim.Device} API, so MiniCU has no host
    constructs.

    Every statement carries a {!tag} used by the simulator to attribute
    execution cost to a category of the paper's Figure 10 breakdown (parent
    work, child work, aggregation logic, launch, disaggregation logic). The
    front end produces [Tag_none]; the transformation passes tag the code
    they generate. *)

(** {1 Types} *)

type ty =
  | TVoid
  | TInt  (** 64-bit signed integer (models CUDA [int]/[unsigned]). *)
  | TFloat  (** Double-precision float (models CUDA [float]). *)
  | TBool
  | TDim3  (** CUDA [dim3] triple. *)
  | TPtr of ty  (** Pointer into device global (or shared) memory. *)
[@@deriving show { with_path = false }, eq]

(** {1 Operators} *)

type unop =
  | Neg  (** Arithmetic negation. *)
  | Not  (** Logical negation. *)
[@@deriving show { with_path = false }, eq]

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
[@@deriving show { with_path = false }, eq]

(** {1 Expressions} *)

type expr =
  | Int_lit of int
  | Float_lit of float
  | Bool_lit of bool
  | Var of string
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Ternary of expr * expr * expr  (** [c ? a : b] *)
  | Index of expr * expr  (** [p\[i\]] — load through a pointer. *)
  | Member of expr * string  (** [e.x] — dim3 component access. *)
  | Call of string * expr list
      (** Builtin (e.g. [atomicAdd], [min], [ceil]) or device-function call. *)
  | Cast of ty * expr  (** [(float)e], [(int)e]. *)
  | Dim3_ctor of expr * expr * expr  (** [dim3(x, y, z)]. *)
  | Addr_of of expr  (** [&lv] — address of an lvalue, for atomics. *)
[@@deriving show { with_path = false }, eq]

(** {1 Cost-attribution tags}

    The simulator charges each executed statement's cost to the category of
    its tag, reproducing the paper's Figure 10 execution-time breakdown
    without the manual code-deactivation methodology of Section VII. *)

type tag =
  | Tag_none  (** Untagged: charged to the enclosing kernel's default. *)
  | Tag_parent  (** Parent work (incl. child work serialized by thresholding). *)
  | Tag_child  (** Child work. *)
  | Tag_agg  (** Aggregation logic inserted in the parent (Fig. 7). *)
  | Tag_disagg  (** Disaggregation logic inserted in the child (Fig. 7). *)
[@@deriving show { with_path = false }, eq]

(** {1 Statements} *)

type stmt = {
  sdesc : stmt_desc;
  stag : tag;
  sloc : (Loc.t[@equal fun _ _ -> true] [@opaque]);
      (** Source location of the statement's first token; {!Loc.dummy} for
          compiler-generated code. Exempt from derived equality so
          parse/pretty round-trips compare structurally. *)
}

and stmt_desc =
  | Decl of ty * string * expr option  (** [int x = e;] *)
  | Decl_shared of ty * string * expr
      (** [__shared__ int x\[n\];] — per-block shared array of static size. *)
  | Assign of expr * expr
      (** [lv = e;] — the left side must be a [Var], [Index] or [Member]. *)
  | If of expr * stmt list * stmt list
  | For of stmt option * expr option * stmt option * stmt list
      (** [for (init; cond; step) body] — [init]/[step] are restricted to
          declarations/assignments by the parser. *)
  | While of expr * stmt list
  | Return of expr option
  | Expr_stmt of expr  (** Expression evaluated for effect (atomics, calls). *)
  | Launch of launch  (** Dynamic (device-side) kernel launch. *)
  | Sync  (** [__syncthreads();] *)
  | Syncwarp  (** [__syncwarp();] *)
  | Threadfence  (** [__threadfence();] *)
  | Break
  | Continue

and launch = {
  l_kernel : string;  (** Callee kernel name. *)
  l_grid : expr;  (** Grid dimension: int or dim3-valued. *)
  l_block : expr;  (** Block dimension: int or dim3-valued. *)
  l_args : expr list;
}
[@@deriving show { with_path = false }, eq]

(** {1 Functions and programs} *)

type func_kind =
  | Global  (** [__global__] kernel: launchable. *)
  | Device  (** [__device__] function: callable from device code. *)
[@@deriving show { with_path = false }, eq]

type param = { p_ty : ty; p_name : string }
[@@deriving show { with_path = false }, eq]

type func = {
  f_name : string;
  f_kind : func_kind;
  f_ret : ty;
  f_params : param list;
  f_body : stmt list;
  f_host_followup : stmt list option;
      (** Host-side statements the runtime executes after a grid of this
          kernel drains. Used by grid-granularity aggregation (Section V-A),
          where the aggregated launch must be performed from the host. [None]
          for ordinary kernels. *)
}
[@@deriving show { with_path = false }, eq]

type program = func list [@@deriving show { with_path = false }, eq]

(** {1 Constructors} *)

let stmt ?(tag = Tag_none) ?(loc = Loc.dummy) sdesc =
  { sdesc; stag = tag; sloc = loc }

(** [retag_deep tag ss] retags [ss] and all nested statements. Statements
    that already carry a non-[Tag_none] tag are left untouched so passes can
    layer tags without clobbering earlier attribution. *)
let rec retag_deep tag s =
  let t = if s.stag = Tag_none then tag else s.stag in
  let deep = List.map (retag_deep tag) in
  let sdesc =
    match s.sdesc with
    | If (c, a, b) -> If (c, deep a, deep b)
    | For (i, c, st, b) ->
        For (Option.map (retag_deep tag) i, c, Option.map (retag_deep tag) st, deep b)
    | While (c, b) -> While (c, deep b)
    | d -> d
  in
  { s with sdesc; stag = t }

let var x = Var x
let ( +: ) a b = Binop (Add, a, b)
let ( -: ) a b = Binop (Sub, a, b)
let ( *: ) a b = Binop (Mul, a, b)
let ( /: ) a b = Binop (Div, a, b)
let ( %: ) a b = Binop (Mod, a, b)
let ( <: ) a b = Binop (Lt, a, b)
let ( <=: ) a b = Binop (Le, a, b)
let ( >=: ) a b = Binop (Ge, a, b)
let ( ==: ) a b = Binop (Eq, a, b)
let ( &&: ) a b = Binop (LAnd, a, b)
let idx p i = Index (p, i)
let member e f = Member (e, f)
let call f args = Call (f, args)

(** Reserved dimension/index variable names (CUDA built-in variables). *)
let reserved_vars = [ "threadIdx"; "blockIdx"; "blockDim"; "gridDim" ]

let is_reserved_var x = List.mem x reserved_vars

(** [find_func p name] finds a function by name. *)
let find_func (p : program) name = List.find_opt (fun f -> f.f_name = name) p

let find_func_exn (p : program) name =
  match find_func p name with
  | Some f -> f
  | None -> invalid_arg (Fmt.str "Ast.find_func_exn: no function %S" name)

(** [replace_func p f] replaces the function named [f.f_name] in [p],
    preserving order. Raises [Invalid_argument] if absent. *)
let replace_func (p : program) (f : func) =
  if find_func p f.f_name = None then
    invalid_arg (Fmt.str "Ast.replace_func: no function %S" f.f_name);
  List.map (fun g -> if g.f_name = f.f_name then f else g) p

(** [add_func_after p ~anchor f] inserts [f] right after the function named
    [anchor] (used to keep generated helpers next to their origin). *)
let add_func_after (p : program) ~anchor (f : func) =
  let rec go = function
    | [] -> invalid_arg (Fmt.str "Ast.add_func_after: no function %S" anchor)
    | g :: rest when g.f_name = anchor -> g :: f :: rest
    | g :: rest -> g :: go rest
  in
  go p
