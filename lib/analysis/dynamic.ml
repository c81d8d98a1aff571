(** Directive-driven dynamic sanitizer runs ([dpoptc --check]).

    Static lints cannot see data-dependent races, and [dpoptc] has no
    workload to run a kernel on — so corpus programs embed their own
    launch configurations as comment directives:

    {v
    // CHECK-RUN: k grid=2 block=32 args=ptr:64,int:8
    v}

    Each directive names a kernel, a launch configuration and synthetic
    arguments ([ptr:N] allocates an [N]-element zero buffer, [int:V] /
    [float:V] pass scalars). {!run} executes every directive on a fresh
    device with [Config.check] set and returns the findings: race reports
    from {!Gpusim.Racecheck} and out-of-bounds runtime errors, all
    carrying source locations. The simulator is deterministic, so
    findings are stable golden-test material. *)

open Gpusim

type arg = A_ptr of int | A_int of int | A_float of float

type directive = {
  dr_kernel : string;
  dr_grid : int * int * int;
  dr_block : int * int * int;
  dr_args : arg list;
}

exception Bad_directive of string

let bad fmt = Fmt.kstr (fun m -> raise (Bad_directive m)) fmt

let parse_int s =
  match int_of_string_opt (String.trim s) with
  | Some n -> n
  | None -> bad "expected an integer, got %S" s

let parse_dim3 s =
  match List.map parse_int (String.split_on_char ',' s) with
  | [ x ] -> (x, 1, 1)
  | [ x; y ] -> (x, y, 1)
  | [ x; y; z ] -> (x, y, z)
  | _ -> bad "expected a dim3 like 2 or 2,2,1, got %S" s

let parse_arg s =
  match String.split_on_char ':' (String.trim s) with
  | [ "ptr"; n ] -> A_ptr (parse_int n)
  | [ "int"; v ] -> A_int (parse_int v)
  | [ "float"; v ] -> (
      match float_of_string_opt (String.trim v) with
      | Some f -> A_float f
      | None -> bad "bad float argument %S" s)
  | _ -> bad "expected ptr:N, int:V or float:V, got %S" s

let parse_directive (line : string) : directive =
  let fields =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun s -> s <> "")
  in
  match fields with
  | kernel :: rest ->
      let d =
        ref
          {
            dr_kernel = kernel;
            dr_grid = (1, 1, 1);
            dr_block = (1, 1, 1);
            dr_args = [];
          }
      in
      List.iter
        (fun field ->
          match String.index_opt field '=' with
          | None -> bad "expected key=value, got %S" field
          | Some i -> (
              let k = String.sub field 0 i in
              let v = String.sub field (i + 1) (String.length field - i - 1) in
              match k with
              | "grid" -> d := { !d with dr_grid = parse_dim3 v }
              | "block" -> d := { !d with dr_block = parse_dim3 v }
              | "args" ->
                  d :=
                    {
                      !d with
                      dr_args =
                        List.map parse_arg (String.split_on_char ',' v);
                    }
              | _ -> bad "unknown directive key %S" k))
        rest;
      !d
  | [] -> bad "empty CHECK-RUN directive"

let marker = "CHECK-RUN:"

(** Scan [src] (raw MiniCU source) for [CHECK-RUN:] comment directives. *)
let directives (src : string) : directive list =
  String.split_on_char '\n' src
  |> List.filter_map (fun line ->
         match
           let ml = String.length marker in
           let rec find i =
             if i + ml > String.length line then None
             else if String.sub line i ml = marker then Some (i + ml)
             else find (i + 1)
           in
           find 0
         with
         | None -> None
         | Some start ->
             Some
               (parse_directive
                  (String.sub line start (String.length line - start))))

(** [run ?cfg ?auto_params prog ds] — execute each directive on a fresh
    device with the sanitizer on; returns all findings (race reports and
    runtime errors, e.g. out-of-bounds), in directive order. Empty means
    clean. *)
let run ?(cfg = Config.test_config) ?auto_params prog
    (ds : directive list) : string list =
  let cfg = { cfg with Config.check = true } in
  List.concat_map
    (fun d ->
      let dev = Device.create ~cfg () in
      Device.load_program dev prog ?auto_params;
      let args =
        List.map
          (function
            | A_ptr n -> Value.Ptr (Device.alloc dev n ~init:(Value.Int 0))
            | A_int n -> Value.Int n
            | A_float f -> Value.Float f)
          d.dr_args
      in
      match
        Device.launch dev ~kernel:d.dr_kernel ~grid:d.dr_grid
          ~block:d.dr_block ~args;
        ignore (Device.sync dev)
      with
      | () ->
          let m = Device.metrics dev in
          m.Metrics.race_reports
      | exception Value.Runtime_error msg ->
          [ Fmt.str "runtime error in %S: %s" d.dr_kernel msg ])
    ds
