(* Pins the consolidated test-iteration knobs (Harness.Env) and keeps
   the README's knob table in sync with the declared defaults: env.mli
   promises the two cannot drift, and this suite is that promise. *)

let t name f = Alcotest.test_case name `Quick f

(* The declared defaults, pinned exactly: changing a default is a
   deliberate act that must also update the README table (checked below)
   and the alias budgets it documents. *)
let expected =
  [
    ("DPFUZZ_ITERS", 25);
    ("DPCHECK_ITERS", 200);
    ("DPOPTD_REQS", 200);
    ("BYTECODE_SMOKE_ITERS", 60_000);
    ("NATIVE_SMOKE_ITERS", 3);
    ("MT_SMOKE_JOBS", 6);
    ("SCALE_SMOKE", 2);
  ]

let test_defaults () =
  Alcotest.(check int)
    "knob count" (List.length expected)
    (List.length Harness.Env.knobs);
  List.iter
    (fun (name, d) ->
      Alcotest.(check int) (name ^ " default") d (Harness.Env.default name))
    expected

let test_get_unset () =
  (* the suite runs without these variables set, so [get] must resolve to
     the declared default for every knob *)
  List.iter
    (fun (k : Harness.Env.knob) ->
      match Sys.getenv_opt k.name with
      | Some _ -> () (* externally overridden: nothing to pin *)
      | None ->
          Alcotest.(check int) (k.name ^ " unset") k.default
            (Harness.Env.get k.name))
    Harness.Env.knobs

let test_unknown_raises () =
  Alcotest.check_raises "unknown knob"
    (Invalid_argument "Harness.Env: unknown knob \"NO_SUCH_KNOB\"") (fun () ->
      ignore (Harness.Env.get "NO_SUCH_KNOB"))

(* The README table row for a knob: "| `NAME` | default | ...". *)
let test_readme_in_sync () =
  let readme =
    (* cwd is test/ under `dune runtest` (the ../README.md dep in
       test/dune stages the file), the project root under `dune exec` *)
    let path =
      List.find Sys.file_exists [ "../README.md"; "README.md" ]
    in
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let lines = String.split_on_char '\n' readme in
  List.iter
    (fun (k : Harness.Env.knob) ->
      let cell = Fmt.str "| `%s` | %d |" k.name k.default in
      if not (List.exists (String.starts_with ~prefix:cell) lines) then
        Alcotest.failf
          "README knob table is missing or stale for %s: expected a row \
           starting with %S"
          k.name cell)
    Harness.Env.knobs

let suite =
  [
    t "knob defaults are the documented ones" test_defaults;
    t "get falls back to the default when unset" test_get_unset;
    t "unknown knobs are rejected" test_unknown_raises;
    t "README knob table matches the declared defaults" test_readme_in_sync;
  ]
