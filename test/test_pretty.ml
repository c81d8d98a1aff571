(* Pretty-printer tests: specific layouts and parse/print round-trip
   properties over randomly generated ASTs. *)

open Minicu
open Minicu.Ast

let roundtrip_prog name src =
  Alcotest.test_case name `Quick (fun () ->
      let p1 = Parser.program src in
      let printed = Pretty.program p1 in
      let p2 = Parser.program printed in
      if not (equal_program p1 p2) then
        Alcotest.failf "round-trip mismatch; printed:\n%s" printed)

let roundtrip_expr name src =
  Alcotest.test_case name `Quick (fun () ->
      let e1 = Parser.expr_of_string src in
      let printed = Pretty.expr_to_string e1 in
      let e2 = Parser.expr_of_string printed in
      if not (equal_expr e1 e2) then
        Alcotest.failf "round-trip mismatch: %S -> %S" src printed)

(* ---- qcheck generators for expressions and statements ---- *)

let gen_name = QCheck.Gen.oneofl [ "a"; "b"; "n"; "x"; "p"; "q" ]
let gen_ptr_name = QCheck.Gen.oneofl [ "p"; "q" ]

let gen_expr =
  QCheck.Gen.(
    sized (fun size ->
        fix
          (fun self n ->
            if n = 0 then
              oneof
                [
                  map (fun i -> Int_lit (abs i mod 1000)) int;
                  map (fun x -> Var x) gen_name;
                  return (Bool_lit true);
                  return (Float_lit 0.5);
                  map (fun x -> Member (Var "threadIdx", x)) (oneofl [ "x"; "y" ]);
                ]
            else
              let sub = self (n / 2) in
              oneof
                [
                  map2
                    (fun op (a, b) -> Binop (op, a, b))
                    (* every constructor of {!Ast.binop}: the audit must
                       cover each precedence tier, in particular the
                       bitwise tiers and [Mod]/[Gt]/[Ge]/[Shr] that an
                       earlier revision of this generator omitted *)
                    (oneofl
                       [
                         Add; Sub; Mul; Div; Mod; Lt; Le; Gt; Ge; Eq; Ne;
                         LAnd; LOr; BAnd; BOr; BXor; Shl; Shr;
                       ])
                    (pair sub sub);
                  (* canonical negation: the parser folds "-<literal>"
                     into the literal, so the generator must too *)
                  map Ast_util.neg sub;
                  map (fun a -> Unop (Not, a)) sub;
                  map3 (fun c a b -> Ternary (c, a, b)) sub sub sub;
                  map2 (fun p i -> Index (Var p, i)) gen_ptr_name sub;
                  map2 (fun p i -> Addr_of (Index (Var p, i))) gen_ptr_name sub;
                  map2 (fun a b -> Call ("min", [ a; b ])) sub sub;
                  map (fun a -> Cast (TInt, a)) sub;
                  map (fun a -> Cast (TFloat, a)) sub;
                  map3 (fun x y z -> Dim3_ctor (x, y, z)) sub sub sub;
                ])
          (min size 14)))

let arbitrary_expr = QCheck.make ~print:Pretty.expr_to_string gen_expr

let expr_roundtrip_prop =
  QCheck.Test.make ~count:1000 ~name:"pretty/parse round-trip on random exprs"
    arbitrary_expr (fun e ->
      let printed = Pretty.expr_to_string e in
      match Parser.expr_of_string printed with
      | e2 -> equal_expr e e2
      | exception Loc.Error (_, m) ->
          QCheck.Test.fail_reportf "printed %S failed to parse: %s" printed m)

let gen_stmt =
  QCheck.Gen.(
    let expr = gen_expr in
    sized (fun size ->
        fix
          (fun self n ->
            let leaf =
              oneof
                [
                  map2 (fun x e -> stmt (Decl (TInt, x ^ "_d", Some e))) gen_name expr;
                  map2 (fun x e -> stmt (Assign (Var x, e))) gen_name expr;
                  map3
                    (fun p i e -> stmt (Assign (Index (Var p, i), e)))
                    gen_ptr_name expr expr;
                  map (fun e -> stmt (Expr_stmt (Call ("min", [ e; e ])))) expr;
                  return (stmt Sync);
                  return (stmt Threadfence);
                ]
            in
            if n = 0 then leaf
            else
              let sub = list_size (int_range 1 3) (self (n / 2)) in
              oneof
                [
                  leaf;
                  map3 (fun c a b -> stmt (If (c, a, b))) expr sub sub;
                  map2 (fun c b -> stmt (While (c, b))) expr sub;
                  map2
                    (fun e b ->
                      stmt
                        (For
                           ( Some (stmt (Decl (TInt, "i_loop", Some (Int_lit 0)))),
                             Some e,
                             Some
                               (stmt
                                  (Assign
                                     ( Var "i_loop",
                                       Binop (Add, Var "i_loop", Int_lit 1) ))),
                             b )))
                    expr sub;
                ])
          (min size 8)))

let arbitrary_stmt = QCheck.make ~print:Pretty.stmt_to_string gen_stmt

let stmt_roundtrip_prop =
  QCheck.Test.make ~count:300 ~name:"pretty/parse round-trip on random stmts"
    arbitrary_stmt (fun s ->
      let printed = Pretty.stmt_to_string s in
      match Parser.stmt_of_string printed with
      | s2 ->
          (* tags are not printed, so compare modulo tags *)
          equal_stmt (retag_deep Tag_none s) (retag_deep Tag_none s2)
      | exception Loc.Error (_, m) ->
          QCheck.Test.fail_reportf "printed %S failed to parse: %s" printed m)

(* ---- pinned bytes ---------------------------------------------------- *)

(* [Pretty.program]'s output is the compile service's canonical text: its
   digest keys every cached stage (lib/serve), and perfbench digests the
   responses built from it. test/corpus/pretty.golden pins one digest per
   program for four families, each a keyed entry of "name digest" lines;
   CORPUS_PROMOTE=1 rewrites them. *)

let digest_lines progs =
  String.concat "\n"
    (List.map
       (fun (name, p) ->
         name ^ " " ^ Digest.to_hex (Digest.string (Pretty.program p)))
       progs)

let pretty_golden key progs =
  Alcotest.test_case ("golden: " ^ key) `Quick (fun () ->
      Test_corpus.golden_entry ~golden_name:"pretty.golden" ~key
        (digest_lines (progs ())))

let small_specs () =
  let open Benchmarks.Registry in
  all ~size:Small () @ road ~size:Small ()

let spec_name (s : Benchmarks.Bench_common.spec) = s.name ^ "/" ^ s.dataset

let golden_suite =
  [
    pretty_golden "corpus fixtures" (fun () ->
        List.map
          (fun f ->
            ( f,
              Parser.program
                (Test_corpus.read_file
                   (Filename.concat Test_corpus.corpus_dir f)) ))
          Test_corpus.fixtures);
    pretty_golden "small registry sources" (fun () ->
        List.concat_map
          (fun (s : Benchmarks.Bench_common.spec) ->
            [
              (spec_name s ^ "/cdp", Parser.program s.cdp_src);
              (spec_name s ^ "/no-cdp", Parser.program s.no_cdp_src);
            ])
          (small_specs ()));
    pretty_golden "small registry pass combinations" (fun () ->
        List.concat_map
          (fun (s : Benchmarks.Bench_common.spec) ->
            let prog = Parser.program s.cdp_src in
            List.map
              (fun (label, opts) ->
                ( spec_name s ^ "/" ^ label,
                  (Dpopt.Pipeline.run ~opts prog).prog ))
              (Dpopt.Pipeline.enumerate ()))
          (small_specs ()));
    pretty_golden "difftest generator seeds 0-199" (fun () ->
        List.init 200 (fun seed ->
            ( string_of_int seed,
              Difftest.Gen.build (Difftest.Gen.case_of_seed seed) )));
  ]

let suite =
  [
    roundtrip_expr "precedence-sensitive printing" "(a + b) * (c - d)";
    roundtrip_expr "nested ternary" "a ? b : c ? d : e";
    roundtrip_expr "ternary in arg" "f(a ? 1 : 2, b)";
    roundtrip_expr "unary chains" "-(a + -b)";
    roundtrip_expr "shift and compare" "(a << 2) < (b >> 1)";
    roundtrip_expr "index of cast" "((int*)p)[3]";
    roundtrip_prog "kernel with launch"
      {|
__global__ void c(int* d, int n) { int i = threadIdx.x; if (i < n) { d[i] = i; } }
__global__ void p(int* d, int n) { c<<<(n + 31) / 32, 32>>>(d, n); }
|};
    roundtrip_prog "loops and control flow"
      {|
__device__ int f(int x) {
  int s = 0;
  for (int i = 0; i < x; i = i + 1) {
    if (i % 2 == 0) { continue; }
    if (i > 100) { break; }
    s = s + i;
  }
  while (s > 10) { s = s / 2; }
  return s;
}
|};
    roundtrip_prog "shared memory and sync"
      {|
__global__ void k(int* d) {
  __shared__ int buf[128];
  buf[threadIdx.x] = d[threadIdx.x];
  __syncthreads();
  __threadfence();
  d[threadIdx.x] = buf[threadIdx.x];
}
|};
    roundtrip_prog "dim3 configs"
      {|
__global__ void c(int* d) { d[0] = 1; }
__global__ void p(int* d) { c<<<dim3(2, 3, 4), dim3(8, 8, 1)>>>(d); }
|};
    Alcotest.test_case "ty_to_string" `Quick (fun () ->
        Alcotest.(check string) "ptr ptr" "int**"
          (Pretty.ty_to_string (TPtr (TPtr TInt)));
        Alcotest.(check string) "dim3" "dim3" (Pretty.ty_to_string TDim3));
    Alcotest.test_case "float literals stay parseable" `Quick (fun () ->
        List.iter
          (fun f ->
            let printed = Pretty.expr_to_string (Float_lit f) in
            match Parser.expr_of_string printed with
            | Float_lit f2 when f2 = f -> ()
            | e -> Alcotest.failf "%g printed as %s parsed to %s" f printed
                     (show_expr e))
          [ 0.0; 1.0; 0.5; 1e-9; 3.14159265358979; 1234567.0 ]);
    QCheck_alcotest.to_alcotest expr_roundtrip_prop;
    QCheck_alcotest.to_alcotest stmt_roundtrip_prop;
    Alcotest.test_case "large float literals keep a float marker" `Quick
      (fun () ->
        (* %.17g prints 1e15 as "1000000000000000" — without the forced
           ".0" suffix it would re-lex as an int literal and change the
           program's canonical digest (lib/serve keys on it) *)
        List.iter
          (fun f ->
            let printed = Pretty.expr_to_string (Float_lit f) in
            Alcotest.(check bool)
              (Fmt.str "%s has a marker" printed)
              true
              (String.exists
                 (fun ch -> ch = '.' || ch = 'e' || ch = 'E')
                 printed);
            match Parser.expr_of_string printed with
            | Float_lit f2 when f2 = f -> ()
            | e ->
                Alcotest.failf "%h printed as %s parsed to %s" f printed
                  (show_expr e))
          [ 1e15; 1e16; 1e22; -1e15; 123456789012345678.0 ]);
    Alcotest.test_case "negative literals parse folded" `Quick (fun () ->
        (* the parser folds unary minus into numeric literals, so printed
           negative literals round-trip structurally *)
        let e s = Parser.expr_of_string s in
        Alcotest.(check bool) "int" true (e "-5" = Int_lit (-5));
        Alcotest.(check bool) "float" true (e "-0.5" = Float_lit (-0.5));
        Alcotest.(check bool) "non-literal stays a Neg" true
          (e "-x" = Unop (Neg, Var "x"));
        Alcotest.(check bool) "double negation folds through" true
          (e "- -5" = Int_lit 5);
        Alcotest.(check bool) "smart constructor agrees" true
          (Ast_util.neg (Int_lit 3) = Int_lit (-3));
        (* float zero is exempt: -0.0 = 0.0 structurally but prints
           differently, so folding it would break print/parse identity *)
        Alcotest.(check bool) "minus float-zero stays a Neg" true
          (Ast_util.neg (Float_lit 0.0) = Unop (Neg, Float_lit 0.0)));
    Alcotest.test_case "difftest corpus round-trips parse(pretty(p))" `Quick
      (fun () ->
        (* the compile service's canonical digest assumes parse . pretty
           is the identity on every program the traffic generator can
           emit (slocs exempt: equal_program ignores them) *)
        for seed = 0 to 149 do
          let p = Difftest.Gen.build (Difftest.Gen.case_of_seed seed) in
          let printed = Pretty.program p in
          let p2 = Parser.program printed in
          if not (equal_program p p2) then
            Alcotest.failf "seed %d: parse(pretty(p)) <> p; printed:\n%s" seed
              printed;
          Alcotest.(check string)
            (Fmt.str "seed %d: pretty is a fixpoint" seed)
            printed (Pretty.program p2)
        done);
  ]
  @ golden_suite
