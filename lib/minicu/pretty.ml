(** Pretty-printer: emits MiniCU ASTs back to CUDA-like source text.

    The output parses back to an equal AST ([Parser.program (Pretty.program p)
    = p] up to statement tags), which the test suite checks with qcheck
    round-trip properties. Parenthesization is precedence-aware so the
    printed text is minimal but unambiguous. Every printer appends to one
    [Buffer]; test/corpus/pretty.golden pins the bytes. *)

open Ast

let ty_to_string ty =
  let rec go = function
    | TVoid -> "void"
    | TInt -> "int"
    | TFloat -> "float"
    | TBool -> "bool"
    | TDim3 -> "dim3"
    | TPtr t -> go t ^ "*"
  in
  go ty

let unop_to_string = function Neg -> "-" | Not -> "!"

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="
  | LAnd -> "&&"
  | LOr -> "||"
  | BAnd -> "&"
  | BOr -> "|"
  | BXor -> "^"
  | Shl -> "<<"
  | Shr -> ">>"

(* Matches the binding powers in Parser.binop_of_token. *)
let binop_prec = function
  | LOr -> 1
  | LAnd -> 2
  | BOr -> 3
  | BXor -> 4
  | BAnd -> 5
  | Eq | Ne -> 6
  | Lt | Le | Gt | Ge -> 7
  | Shl | Shr -> 8
  | Add | Sub -> 9
  | Mul | Div | Mod -> 10

let prec_ternary = 0
let prec_unary = 11
let prec_postfix = 12

let float_lit f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.17g" f in
    (* %.17g renders integral magnitudes in [1e15, ~1e17) without a point
       or exponent ("1000000000000000"), which would re-lex as an *int*
       literal — aliasing a float-typed AST with an int-typed one. Force a
       marker so the printed form always lexes back as FLOAT. *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"

let expr_prec = function
  | Int_lit _ | Float_lit _ | Bool_lit _ | Var _ | Call _ | Dim3_ctor _ ->
      prec_postfix + 1
  | Index _ | Member _ -> prec_postfix
  | Unop _ | Cast _ | Addr_of _ -> prec_unary
  | Binop (op, _, _) -> binop_prec op
  | Ternary _ -> prec_ternary

let str = Buffer.add_string
let chr = Buffer.add_char

let sep_list b sep add = function
  | [] -> ()
  | x :: xs ->
      add b x;
      List.iter
        (fun x ->
          str b sep;
          add b x)
        xs

let rec expr b e = expr_prec_at b prec_ternary e

(* Print [e]; parenthesize if its precedence is below [min]. *)
and expr_prec_at b min e =
  let paren = expr_prec e < min in
  if paren then chr b '(';
  (match e with
  | Int_lit n -> str b (string_of_int n)
  | Float_lit f -> str b (float_lit f)
  | Bool_lit v -> str b (string_of_bool v)
  | Var x -> str b x
  | Unop (op, a) ->
      (* parenthesize a same-operator operand so "- -a" does not lex as
         the "--" token *)
      let amin =
        match a with
        | Unop (op2, _) when op2 = op -> prec_unary + 1
        | _ -> prec_unary
      in
      str b (unop_to_string op);
      expr_prec_at b amin a
  | Binop (op, l, r) ->
      let bp = binop_prec op in
      (* left-assoc: left child may be same precedence, right must bind
         tighter *)
      expr_prec_at b bp l;
      chr b ' ';
      str b (binop_to_string op);
      chr b ' ';
      expr_prec_at b (bp + 1) r
  | Ternary (c, x, y) ->
      expr_prec_at b (prec_ternary + 1) c;
      str b " ? ";
      expr_prec_at b (prec_ternary + 1) x;
      str b " : ";
      expr_prec_at b prec_ternary y
  | Index (a, i) ->
      expr_prec_at b prec_postfix a;
      chr b '[';
      expr b i;
      chr b ']'
  | Member (a, f) ->
      expr_prec_at b prec_postfix a;
      chr b '.';
      str b f
  | Call (f, args) ->
      str b f;
      chr b '(';
      sep_list b ", " expr args;
      chr b ')'
  | Cast (ty, a) ->
      chr b '(';
      str b (ty_to_string ty);
      chr b ')';
      expr_prec_at b prec_unary a
  | Dim3_ctor (x, y, z) ->
      str b "dim3(";
      expr b x;
      str b ", ";
      expr b y;
      str b ", ";
      expr b z;
      chr b ')'
  | Addr_of a ->
      chr b '&';
      expr_prec_at b prec_unary a);
  if paren then chr b ')'

let pad b indent =
  for _ = 1 to indent do
    chr b ' '
  done

let rec stmt b ~indent s =
  pad b indent;
  match s.sdesc with
  | Decl _ | Assign _ | Expr_stmt _ ->
      simple b s;
      chr b ';'
  | Decl_shared (ty, x, size) ->
      str b "__shared__ ";
      str b (ty_to_string ty);
      chr b ' ';
      str b x;
      chr b '[';
      expr b size;
      str b "];"
  | If (Bool_lit true, body, []) -> (* anonymous block *) block b ~indent body
  | If (c, then_, else_) ->
      str b "if (";
      expr b c;
      str b ") ";
      block b ~indent then_;
      if else_ <> [] then begin
        str b " else ";
        block b ~indent else_
      end
  | For (init, cond, step, body) ->
      str b "for (";
      Option.iter (simple b) init;
      str b "; ";
      Option.iter (expr b) cond;
      str b "; ";
      Option.iter (simple b) step;
      str b ") ";
      block b ~indent body
  | While (c, body) ->
      str b "while (";
      expr b c;
      str b ") ";
      block b ~indent body
  | Return None -> str b "return;"
  | Return (Some e) ->
      str b "return ";
      expr b e;
      chr b ';'
  | Launch l ->
      str b l.l_kernel;
      str b "<<<";
      expr b l.l_grid;
      str b ", ";
      expr b l.l_block;
      str b ">>>(";
      sep_list b ", " expr l.l_args;
      str b ");"
  | Sync -> str b "__syncthreads();"
  | Syncwarp -> str b "__syncwarp();"
  | Threadfence -> str b "__threadfence();"
  | Break -> str b "break;"
  | Continue -> str b "continue;"

(* for-header fragments print without trailing ';' or padding *)
and simple b s =
  match s.sdesc with
  | Decl (ty, x, init) -> (
      str b (ty_to_string ty);
      chr b ' ';
      str b x;
      match init with
      | None -> ()
      | Some e ->
          str b " = ";
          expr b e)
  | Assign (lv, e) ->
      expr b lv;
      str b " = ";
      expr b e
  | Expr_stmt e -> expr b e
  | _ -> invalid_arg "Pretty.simple: not a simple statement"

(* "{", the body two deeper, "}" at [indent] *)
and block b ~indent body =
  str b "{\n";
  stmts b ~indent:(indent + 2) body;
  chr b '\n';
  pad b indent;
  chr b '}'

and stmts b ~indent ss = sep_list b "\n" (fun b s -> stmt b ~indent s) ss

let param b p =
  str b (ty_to_string p.p_ty);
  chr b ' ';
  str b p.p_name

let func b f =
  str b (match f.f_kind with Global -> "__global__ " | Device -> "__device__ ");
  str b (ty_to_string f.f_ret);
  chr b ' ';
  str b f.f_name;
  chr b '(';
  sep_list b ", " param f.f_params;
  str b ") {\n";
  stmts b ~indent:2 f.f_body;
  str b "\n}";
  match f.f_host_followup with
  | None -> ()
  | Some ss ->
      str b "\n// host followup for ";
      str b f.f_name;
      str b " (grid-granularity aggregation):\n// {\n";
      stmts b ~indent:2 ss;
      str b "\n// }"

(* A fresh buffer per call, small enough to start on the minor heap; it
   grows by doubling for whole programs. *)
let to_string add x =
  let b = Buffer.create 1024 in
  add b x;
  Buffer.contents b

let expr_to_string e = to_string expr e
let stmt_to_string s = to_string (fun b s -> stmt b ~indent:0 s) s

(** [program p] renders a full translation unit as source text, one blank
    line between functions and a final newline. *)
let program p =
  to_string
    (fun b p ->
      sep_list b "\n\n" func p;
      chr b '\n')
    p
