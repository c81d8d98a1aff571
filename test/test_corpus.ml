(* Golden-corpus suite. Every test/corpus/*.minicu fixture must:

     1. parse, and for good fixtures, typecheck;
     2. round-trip — parse → pretty → parse yields an equal AST;
     3. pretty-print byte-for-byte to its committed .golden file;
     4. (bad_* fixtures) produce exactly the dpcheck diagnostics pinned in
        its .diags golden — static lints first, then dynamic findings from
        any CHECK-RUN directives — and at least one finding.

   After an intentional pretty-printer or diagnostic change, run with
   CORPUS_PROMOTE=1 to rewrite the goldens, then review the diff. The
   keyed-golden helpers below also serve the VM golden suite
   (test_bytecode.ml) and the tenancy artifact pin. *)

module Static = Analysis.Static
module Dynamic = Analysis.Dynamic

let t name f = Alcotest.test_case name `Quick f

(* Under `dune runtest` the suite runs in _build/default/test with a
   copied corpus/; under `dune exec` from the repo root it is
   test/corpus. *)
let corpus_dir =
  if Sys.file_exists "corpus" then "corpus"
  else if Sys.file_exists "test/corpus" then "test/corpus"
  else Fmt.failwith "cannot locate the corpus directory from %s" (Sys.getcwd ())

(* Promotion must write to the source tree, not the build copy. *)
let promote_dir =
  if Sys.file_exists "../../../test/corpus" then "../../../test/corpus"
  else corpus_dir

let promoting = Sys.getenv_opt "CORPUS_PROMOTE" <> None

let read_file path = In_channel.with_open_text path In_channel.input_all

let write_file path s =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc s)

let fixtures =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".minicu")
  |> List.sort compare

let golden_check ~what ~fixture ~golden_name actual =
  let committed = Filename.concat corpus_dir golden_name in
  if promoting then
    write_file (Filename.concat promote_dir golden_name) actual
  else if not (Sys.file_exists committed) then
    Alcotest.failf "%s: no %s golden; run with CORPUS_PROMOTE=1 to create %s"
      fixture what golden_name
  else
    let expected = read_file committed in
    if expected <> actual then
      Alcotest.failf
        "%s: %s deviates from its golden (%s).@.--- expected@.%s@.--- got@.%s@.\
         If the change is intentional, rerun with CORPUS_PROMOTE=1."
        fixture what golden_name expected actual

(* Keyed goldens: one file holds a family of small named results, each
   entry a "== key" header line followed by its value lines, in key order.
   Each test checks (or, under CORPUS_PROMOTE=1, rewrites) only its own
   entry, so families of hundreds of runs stay one reviewable file. *)

let parse_entries text =
  let lines = String.split_on_char '\n' text in
  (* rendered files end with a newline: drop the empty last line *)
  let lines = List.filteri (fun i _ -> i < List.length lines - 1) lines in
  List.fold_left
    (fun acc line ->
      match (String.starts_with ~prefix:"== " line, acc) with
      | true, _ -> (String.sub line 3 (String.length line - 3), []) :: acc
      | false, (key, value) :: rest -> (key, line :: value) :: rest
      | false, [] -> acc)
    [] lines
  |> List.rev_map (fun (key, value) ->
         (key, String.concat "\n" (List.rev value)))

let render_entries entries =
  String.concat ""
    (List.map (fun (k, v) -> Fmt.str "== %s\n%s\n" k v)
       (List.sort (fun (a, _) (b, _) -> compare a b) entries))

let golden_entry ~golden_name ~key actual =
  if promoting then
    let path = Filename.concat promote_dir golden_name in
    let entries =
      if Sys.file_exists path then parse_entries (read_file path) else []
    in
    write_file path
      (render_entries ((key, actual) :: List.remove_assoc key entries))
  else
    let committed = Filename.concat corpus_dir golden_name in
    let entries =
      if Sys.file_exists committed then parse_entries (read_file committed)
      else []
    in
    match List.assoc_opt key entries with
    | None ->
        Alcotest.failf
          "%s: no entry %S; run with CORPUS_PROMOTE=1 to record it" golden_name
          key
    | Some expected ->
        if expected <> actual then
          Alcotest.failf
            "%s [%s] deviates from its golden.@.--- expected@.%s@.--- got@.%s@.\
             If the change is intentional, rerun with CORPUS_PROMOTE=1."
            golden_name key expected actual

let diags_of src prog =
  let static =
    List.map (Fmt.str "%a" Static.pp_diag) (Static.check_program prog)
  in
  let dynamic = Dynamic.run prog (Dynamic.directives src) in
  static @ dynamic

let fixture_tests file =
  let base = Filename.chop_suffix file ".minicu" in
  let is_bad = String.length base >= 4 && String.sub base 0 4 = "bad_" in
  let load () =
    let src = read_file (Filename.concat corpus_dir file) in
    (src, Minicu.Parser.program ~file src)
  in
  [
    t (base ^ ": parse/pretty/parse round-trip") (fun () ->
        let _, prog = load () in
        if not is_bad then Minicu.Typecheck.check prog;
        let printed = Minicu.Pretty.program prog in
        let reparsed = Minicu.Parser.program ~file printed in
        if not (Minicu.Ast.equal_program prog reparsed) then
          Alcotest.failf "%s: pretty output parses to a different AST:@.%s"
            file printed);
    t (base ^ ": pretty output matches golden") (fun () ->
        let _, prog = load () in
        golden_check ~what:"pretty output" ~fixture:file
          ~golden_name:(base ^ ".golden")
          (Minicu.Pretty.program prog));
  ]
  @
  if is_bad then
    [
      t (base ^ ": dpcheck diagnostics match golden") (fun () ->
          let src, prog = load () in
          let diags = diags_of src prog in
          if diags = [] then
            Alcotest.failf "%s: a bad fixture produced no diagnostics" file;
          golden_check ~what:"diagnostics" ~fixture:file
            ~golden_name:(base ^ ".diags")
            (String.concat "\n" diags ^ "\n"));
    ]
  else
    [
      t (base ^ ": no static errors") (fun () ->
          let _, prog = load () in
          match Static.errors (Static.check_program prog) with
          | [] -> ()
          | d :: _ -> Alcotest.failf "%s: %a" file Static.pp_diag d);
    ]

let suite = List.concat_map fixture_tests fixtures
