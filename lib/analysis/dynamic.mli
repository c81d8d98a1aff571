(** Directive-driven dynamic sanitizer runs (the [dpoptc --check] dynamic
    half).

    Corpus programs embed launch configurations as comment directives:

    {v
    // CHECK-RUN: k grid=2 block=32 args=ptr:64,int:8
    v}

    [ptr:N] allocates an [N]-element zero buffer; [int:V] and [float:V]
    pass scalars. Each directive runs on a fresh device with
    [Config.check] enabled; findings (race reports, out-of-bounds runtime
    errors) are deterministic and carry source locations. *)

type arg = A_ptr of int  (** Zero buffer of N elements. *) | A_int of int | A_float of float

type directive = {
  dr_kernel : string;
  dr_grid : int * int * int;
  dr_block : int * int * int;
  dr_args : arg list;
}

exception Bad_directive of string

(** Scan raw MiniCU source for [CHECK-RUN:] directives.
    @raise Bad_directive on malformed ones. *)
val directives : string -> directive list

(** [run ?cfg ?auto_params prog ds] — execute each directive under the
    sanitizer; returns all findings, in directive order. Empty = clean. *)
val run :
  ?cfg:Gpusim.Config.t ->
  ?auto_params:(string * Dpopt.Aggregation.auto_param list) list ->
  Minicu.Ast.program ->
  directive list ->
  string list
