(** The benchmark × dataset matrix of Table I, with the scaled-down dataset
    sizes this reproduction uses by default (MiniCU is interpreted; see
    DESIGN.md). [Size] scales every dataset together so the harness can
    trade fidelity for wall-clock time. *)

type size = Small | Medium | Large

let size_of_string s =
  match String.lowercase_ascii s with
  | "small" -> Ok Small
  | "medium" -> Ok Medium
  | "large" -> Ok Large
  | _ -> Error (`Msg (Fmt.str "unknown size %S (small | medium | large)" s))

let pp_size ppf size =
  Fmt.string ppf
    (match size with Small -> "small" | Medium -> "medium" | Large -> "large")

(* [memo make] is [make], computed once per size for the life of the
   process. Pool jobs look datasets and specs up from several domains at
   once, so a mutex guards the table. It is held while [make] runs, so
   concurrent first lookups wait for one build instead of each making
   their own. *)
let memo make =
  let cache = Hashtbl.create 3 and lock = Mutex.create () in
  fun (size : size) ->
    Mutex.protect lock @@ fun () ->
    match Hashtbl.find_opt cache size with
    | Some v -> v
    | None ->
        let v = make size in
        Hashtbl.add cache size v;
        v

(* Generator parameters of a tier. *)
type dims = {
  scale : int;  (** RMAT scale of KRON. *)
  cnr_n : int;
  road_side : int;
  lines1 : int;  (** Lines of T0032-C16. *)
  lines2 : int;  (** Lines of T2048-C64. *)
  sat_scale : float;
}

let dims = function
  | Small ->
      { scale = 9; cnr_n = 900; road_side = 28; lines1 = 300; lines2 = 120;
        sat_scale = 0.6 }
  | Medium ->
      { scale = 10; cnr_n = 1500; road_side = 36; lines1 = 600; lines2 = 200;
        sat_scale = 1.0 }
  (* paper-scale: RMAT scale 13 puts the hub degree 100x+ above the mean
     (the regime where CDP wins in the paper); intended for sampled runs —
     exact large runs are possible but slow *)
  | Large ->
      { scale = 13; cnr_n = 15000; road_side = 100; lines1 = 100_000;
        lines2 = 30_000; sat_scale = 5.0 }

(* Each dataset is generated on its first use, so a lookup pays only for
   the datasets its spec reads. Generation is deterministic (the
   generators seed their own PRNGs), so the order of first uses does not
   matter. *)
let kron =
  memo (fun s -> Workloads.Graph_gen.kron_dataset ~scale:(dims s).scale ())

let cnr = memo (fun s -> Workloads.Graph_gen.cnr_dataset ~n:(dims s).cnr_n ())

let road =
  memo (fun s ->
      let side = (dims s).road_side in
      Workloads.Graph_gen.road_dataset ~rows:side ~cols:side ())

let t0032 =
  memo (fun s -> Workloads.Bezier.t0032_c16 ~n_lines:(dims s).lines1 ())

let t2048 =
  memo (fun s -> Workloads.Bezier.t2048_c64 ~n_lines:(dims s).lines2 ())

let sat_size s x = int_of_float (x *. (dims s).sat_scale)

let rand3 =
  memo (fun s ->
      Workloads.Sat.rand3 ~n_vars:(sat_size s 700.0)
        ~n_clauses:(sat_size s 2940.0) ())

let sat5 =
  memo (fun s ->
      Workloads.Sat.sat5 ~n_vars:(sat_size s 800.0)
        ~n_clauses:(sat_size s 6000.0) ())

let datasets size =
  ( kron size, cnr size, road size, t0032 size, t2048 size, rand3 size,
    sat5 size )

(* One row per (benchmark, dataset) pair, in Fig. 9 order: Table I's 14,
   then the four graph benchmarks on the road network (Fig. 12). A row
   builds its spec on the first lookup at a tier and returns that value
   from then on, so every figure of a process runs the same spec values
   and shares the harness's run memo, which is keyed on them. *)
let table : (string * string * (size -> Bench_common.spec)) list =
  let tc_cap = function Small -> 3000 | Medium -> 6000 | Large -> 20000 in
  List.map
    (fun (name, dataset, make) -> (name, dataset, memo make))
    [
      ("BFS", "KRON", fun s -> Bfs.spec ~dataset:(kron s));
      ("BFS", "CNR", fun s -> Bfs.spec ~dataset:(cnr s));
      ("BT", "T0032-C16", fun s -> Bt.spec ~dataset:(t0032 s));
      ("BT", "T2048-C64", fun s -> Bt.spec ~dataset:(t2048 s));
      ("MSTF", "KRON", fun s -> Mst.mstf_spec ~dataset:(kron s));
      ("MSTF", "CNR", fun s -> Mst.mstf_spec ~dataset:(cnr s));
      ("MSTV", "KRON", fun s -> Mst.mstv_spec ~dataset:(kron s));
      ("MSTV", "CNR", fun s -> Mst.mstv_spec ~dataset:(cnr s));
      ("SP", "RAND-3", fun s -> Sp.spec ~formula:(rand3 s));
      ("SP", "5-SAT", fun s -> Sp.spec ~formula:(sat5 s));
      ("SSSP", "KRON", fun s -> Sssp.spec ~dataset:(kron s));
      ("SSSP", "CNR", fun s -> Sssp.spec ~dataset:(cnr s));
      ("TC", "KRON", fun s -> Tc.spec ~cap:(tc_cap s) ~dataset:(kron s) ());
      ("TC", "CNR", fun s -> Tc.spec ~cap:(tc_cap s) ~dataset:(cnr s) ());
      ("BFS", "ROAD", fun s -> Bfs.spec ~dataset:(road s));
      ("MSTF", "ROAD", fun s -> Mst.mstf_spec ~dataset:(road s));
      ("MSTV", "ROAD", fun s -> Mst.mstv_spec ~dataset:(road s));
      ("SSSP", "ROAD", fun s -> Sssp.spec ~dataset:(road s));
    ]

let specs ~on_road size =
  List.filter_map
    (fun (_, dataset, make) ->
      if (dataset = "ROAD") = on_road then Some (make size) else None)
    table

let all ?(size = Small) () = specs ~on_road:false size
let road ?(size = Small) () = specs ~on_road:true size

let table1 =
  List.fold_right
    (fun (name, dataset, _) rows ->
      match rows with
      | _ when dataset = "ROAD" -> rows
      | (n, ds) :: rest when n = name -> (n, dataset :: ds) :: rest
      | _ -> (name, [ dataset ]) :: rows)
    table []

let find ?(size = Small) ~name ~dataset () =
  List.find_map
    (fun (n, d, make) ->
      if n = name && d = dataset then Some (make size) else None)
    table
