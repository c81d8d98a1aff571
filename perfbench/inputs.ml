(** Every input of every workload, generated from the benchmark seed with
    the program's public generators. The program under test receives only
    these values.

    Seed [default_seed] reproduces [Benchmarks.Registry.datasets] exactly
    (each generator gets its registry seed); any other seed shifts every
    generator seed by [(seed - default_seed) * seed_stride]. The compile
    stream is [Serve.Traffic]'s, with the benchmark seed as its seed. *)

module Gg = Workloads.Graph_gen
module Registry = Benchmarks.Registry

let default_seed = 42

let seed_stride = 7919
let gen_seed ~seed base = base + ((seed - default_seed) * seed_stride)

type datasets = {
  kron : Gg.named;
  cnr : Gg.named;
  road : Gg.named;
  t0032 : Workloads.Bezier.t;
  t2048 : Workloads.Bezier.t;
  rand3 : Workloads.Sat.t;
  sat5 : Workloads.Sat.t;
}

let dataset_names =
  [ "KRON"; "CNR"; "ROAD"; "T0032-C16"; "T2048-C64"; "RAND-3"; "5-SAT" ]

(* Variable choice of the two SAT families (not exported by Sat). *)
let uniform_var rng n = Workloads.Rng.int rng n

let skewed_var rng n =
  let r = Workloads.Rng.float rng in
  min (n - 1) (int_of_float (r *. r *. float_of_int n))

(** [datasets ~seed size] builds the seven datasets of a registry tier with
    the registry's sizes, one [workloads.gen] span per dataset. *)
let datasets ~seed (size : Registry.size) =
  let scale, cnr_n, road_n, lines1, lines2, sat_scale =
    match size with
    | Small -> (9, 900, 28, 300, 120, 0.6)
    | Medium -> (10, 1500, 36, 600, 200, 1.0)
    | Large -> (13, 15000, 100, 100_000, 30_000, 5.0)
  in
  let s = gen_seed ~seed in
  let timed name f = Span.with_ "workloads.gen" ~tag:name f in
  let named name graph = { Gg.name; graph; description = "" } in
  let sat name ~n_vars ~n_clauses ~k ~pick =
    Workloads.Sat.generate ~seed:(s 31337) ~name
      ~n_vars:(int_of_float (n_vars *. sat_scale))
      ~n_clauses:(int_of_float (n_clauses *. sat_scale))
      ~k ~pick ()
  in
  let bezier name ~n_lines ~max_tessellation ~curvature_scale =
    Workloads.Bezier.generate ~seed:(s 2022) ~name ~n_lines ~max_tessellation
      ~curvature_scale ()
  in
  let kron =
    timed "KRON" (fun () ->
        named "KRON" (Gg.kron ~seed:(s 42) ~scale ~edge_factor:16 ()))
  in
  let cnr =
    timed "CNR" (fun () ->
        named "CNR" (Gg.webgraph ~seed:(s 4242) ~n:cnr_n ~edges_per_vertex:8 ()))
  in
  let road =
    timed "ROAD" (fun () ->
        named "ROAD" (Gg.road ~seed:(s 777) ~rows:road_n ~cols:road_n ()))
  in
  let t0032 =
    timed "T0032-C16" (fun () ->
        bezier "T0032-C16" ~n_lines:lines1 ~max_tessellation:32
          ~curvature_scale:16.0)
  in
  let t2048 =
    timed "T2048-C64" (fun () ->
        bezier "T2048-C64" ~n_lines:lines2 ~max_tessellation:2048
          ~curvature_scale:64.0)
  in
  let rand3 =
    timed "RAND-3" (fun () ->
        sat "RAND-3" ~n_vars:700.0 ~n_clauses:2940.0 ~k:3 ~pick:uniform_var)
  in
  let sat5 =
    timed "5-SAT" (fun () ->
        sat "5-SAT" ~n_vars:800.0 ~n_clauses:6000.0 ~k:5 ~pick:skewed_var)
  in
  { kron; cnr; road; t0032; t2048; rand3; sat5 }

(** Whether [d] equals the registry's datasets for [size] (names, graphs,
    lines, clauses; graph descriptions are not compared). *)
let matches_registry d size =
  let kron, cnr, road, t0032, t2048, rand3, sat5 = Registry.datasets size in
  let g (a : Gg.named) (b : Gg.named) = a.name = b.name && a.graph = b.graph in
  g d.kron kron && g d.cnr cnr && g d.road road && d.t0032 = t0032
  && d.t2048 = t2048 && d.rand3 = rand3 && d.sat5 = sat5

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

(** One digest per dataset, in {!dataset_names} order. *)
let dataset_digests d =
  List.combine dataset_names
    [
      digest d.kron.graph; digest d.cnr.graph; digest d.road.graph;
      digest d.t0032; digest d.t2048; digest d.rand3; digest d.sat5;
    ]

(** The Table I specs plus the road specs of a tier, in registry order
    ([Registry.all @ Registry.road]). *)
let specs d (size : Registry.size) : Benchmarks.Bench_common.spec list =
  let open Benchmarks in
  let tc_cap = match size with Small -> 3000 | Medium -> 6000 | Large -> 20000 in
  [
    Bfs.spec ~dataset:d.kron;
    Bfs.spec ~dataset:d.cnr;
    Bt.spec ~dataset:d.t0032;
    Bt.spec ~dataset:d.t2048;
    Mst.mstf_spec ~dataset:d.kron;
    Mst.mstf_spec ~dataset:d.cnr;
    Mst.mstv_spec ~dataset:d.kron;
    Mst.mstv_spec ~dataset:d.cnr;
    Sp.spec ~formula:d.rand3;
    Sp.spec ~formula:d.sat5;
    Sssp.spec ~dataset:d.kron;
    Sssp.spec ~dataset:d.cnr;
    Tc.spec ~cap:tc_cap ~dataset:d.kron ();
    Tc.spec ~cap:tc_cap ~dataset:d.cnr ();
    Bfs.spec ~dataset:d.road;
    Mst.mstf_spec ~dataset:d.road;
    Mst.mstv_spec ~dataset:d.road;
    Sssp.spec ~dataset:d.road;
  ]

(* ---- compile-stream requests --------------------------------------- *)

(** [traffic ~seed ~distinct ~zipf requests] — [dpoptd]'s synthetic
    traffic ({!Serve.Traffic.requests}) with the benchmark seed, flattened
    to one closed-loop client's stream. *)
let traffic ~seed ~distinct ~zipf requests =
  Serve.Traffic.requests
    { Serve.Traffic.default with seed; distinct; requests; zipf_s = zipf }
  |> List.concat

(** Digest of a request as the engine sees it. *)
let request_digest (rq : Serve.Engine.request) =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            rq.rq_file;
            rq.rq_src;
            Dpopt.Pipeline.fingerprint rq.rq_opts;
            (match rq.rq_profile with
            | None -> "-"
            | Some p -> Serve.Key.profile p);
          ]))
