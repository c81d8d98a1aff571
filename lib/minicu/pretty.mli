(** Pretty-printer: MiniCU ASTs back to CUDA-like source text.

    There is one printer: every function below appends to one [Buffer],
    and test/corpus/pretty.golden pins its bytes (one digest per corpus
    fixture, Small-registry source, pass combination and generated
    program). {!program}'s text is the compile service's canonical form,
    so its digest keys every cached stage in [lib/serve].

    Output re-parses to an equal AST (modulo statement tags, which have no
    concrete syntax); parenthesization is precedence-aware and minimal.
    Negative numeric literals print as ["-5"], which C lexes as unary
    minus; the parser folds that back into the literal, so the round-trip
    holds on them too (exception: [Float_lit (-0.)], which cannot be
    distinguished from [Unop (Neg, Float_lit 0.)] after printing). Float
    literals always carry a ['.'] or exponent marker so they never re-lex
    as ints. Non-finite floats ([nan]/[infinity]) have no literal syntax
    and do not round-trip. A host followup (grid-granularity aggregation)
    prints as a trailing comment block, since it has no kernel-language
    syntax, and is likewise dropped by a re-parse. *)

val ty_to_string : Ast.ty -> string
val expr_to_string : Ast.expr -> string

(** A statement at indent 0, without a trailing newline. *)
val stmt_to_string : Ast.stmt -> string

(** [program p] renders a full translation unit: its functions separated
    by a blank line, then a final newline. *)
val program : Ast.program -> string
