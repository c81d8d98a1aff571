(** Run one (benchmark, dataset, variant) cell and snapshot its results. *)

type measurement = {
  bench : string;
  dataset : string;
  variant : string;
  time : float;  (** Simulated cycles for the whole application run. *)
  fingerprint : int;
  snap : Gpusim.Metrics.t;
      (** The run's metrics record; nothing mutates it after the run. *)
  sampled : bool;
      (** Grid/launch sampling actually triggered ({!Gpusim.Metrics.sampled}):
          [time] is an extrapolation, [fingerprint] is not validated. *)
  rel_std_error : float;
      (** Relative standard error of the extrapolated compute total;
          [0.0] on exact runs. *)
  extrapolation : Costmodel.Extrapolate.report option;
      (** Full extrapolation report; [Some] exactly when [sampled]. *)
}

exception Validation_failure of string

(* Whether the config enables grid sampling: sampled runs skip blocks, so
   their output is (deliberately) not the reference output. *)
let sampling_on = function
  | Some (cfg : Gpusim.Config.t) -> cfg.sampling <> None
  | None -> false

let sampling_for_size (size : Benchmarks.Registry.size) =
  match size with
  | Small | Medium -> Gpusim.Config.default_sampling
  | Large ->
      (* large-tier grids run to 100k+ blocks: the default 25% coverage
         would still simulate tens of thousands of them. 2% per stratum
         keeps a large sampled sweep in the same wall-clock ballpark as a
         medium exact one, and stratifying over contiguous block-index
         ranges keeps the extrapolation inside the @scale error gate. *)
      {
        Gpusim.Config.default_sampling with
        block_frac = 0.02;
        launch_frac = 0.10;
      }

(* The process-wide run memo. A key is the spec's name and dataset, the
   variant and the effective config; its bucket holds one raw run per
   spec value under that key, matched by physical identity: two specs
   may share a name and dataset yet run different data (Ablation's 24×24
   ROAD and the small tier's 28×28 ROAD) or a different [run] (a
   [{ spec with run = … }] copy). *)
module Key = struct
  type t = string * string * Variant.t * Gpusim.Config.t

  let equal = ( = )

  (* deep enough to reach the pass parameters past the config's fields *)
  let hash = Hashtbl.hash_param 64 256
end

module Memo = Hashtbl.Make (Key)

let memo :
    (Benchmarks.Bench_common.spec * (int * float * Gpusim.Metrics.t)) list
    Memo.t =
  Memo.create 64

let memo_lock = Mutex.create ()
let simulated_runs = Atomic.make 0
let reused_runs = Atomic.make 0
let simulated () = Atomic.get simulated_runs
let reused () = Atomic.get reused_runs

(* [run_variant ?cfg spec variant], or its stored result. The lock guards
   only the table: simulations run outside it, so two domains that miss
   on one key both simulate, and the first to finish stores the run. *)
let memo_run ?cfg (spec : Benchmarks.Bench_common.spec) variant =
  let cfg_key = Option.value cfg ~default:Gpusim.Config.default in
  let key = (spec.name, spec.dataset, variant, cfg_key) in
  let find () = Option.bind (Memo.find_opt memo key) (List.assq_opt spec) in
  match Mutex.protect memo_lock find with
  | Some raw ->
      Atomic.incr reused_runs;
      raw
  | None ->
      let raw = Benchmarks.Bench_common.run_variant ?cfg spec variant in
      Atomic.incr simulated_runs;
      Mutex.protect memo_lock (fun () ->
          let bucket = Option.value (Memo.find_opt memo key) ~default:[] in
          if not (List.mem_assq spec bucket) then
            Memo.replace memo key ((spec, raw) :: bucket));
      raw

(** [run ?cfg spec variant] executes the benchmark under the
    variant, or reuses the process's earlier run of the same spec value,
    variant and config. Every call checks the output fingerprint against [spec]'s pure-OCaml reference, and a
    mismatch raises {!Validation_failure} — transformed code must be
    {e correct}, not just fast. Validation is skipped when [cfg] enables
    sampling: a sampled run simulates only a stratified subset of blocks,
    so its outputs are estimates by construction (the [sampled] field
    records this). *)
let run ?cfg (spec : Benchmarks.Bench_common.spec) (variant : Variant.t) :
    measurement =
  let fp, time, metrics = memo_run ?cfg spec variant in
  (if not (sampling_on cfg) then
     let reference = spec.reference () in
     if fp <> reference then
       raise
         (Validation_failure
            (Fmt.str "%s/%s under %s: fingerprint %d, reference %d" spec.name
               spec.dataset (Variant.label variant) fp reference)));
  {
    bench = spec.name;
    dataset = spec.dataset;
    variant = Variant.label variant;
    time;
    fingerprint = fp;
    snap = metrics;
    sampled = Gpusim.Metrics.sampled metrics;
    rel_std_error = Gpusim.Metrics.rel_std_error metrics;
    extrapolation = Costmodel.Extrapolate.of_metrics metrics;
  }

(** One cell of a sweep: an optional simulator-config override plus the
    (benchmark, variant) pair to run under it. *)
type cell = {
  cell_cfg : Gpusim.Config.t option;
  cell_spec : Benchmarks.Bench_common.spec;
  cell_variant : Variant.t;
}

let cell ?cfg spec variant =
  { cell_cfg = cfg; cell_spec = spec; cell_variant = variant }

(** [run_cells ?pool cells] evaluates every cell — on [pool]'s
    worker domains when given, sequentially otherwise — and returns, in
    the {e input} order regardless of completion order, each measurement
    paired with the wall-clock seconds its cell took. A simulated cell
    builds its own device/memory/metrics and a repeated one reuses an
    earlier run, so cells are mutually independent; this is the one entry
    point all the parallel sweep consumers ([runbench --sweep],
    {!Ablation}, {!Sweep}) share. *)
let run_cells ?pool ?progress (cells : cell list) :
    (measurement * float) list =
  let eval c =
    let t0 = Unix.gettimeofday () in
    let m = run ?cfg:c.cell_cfg c.cell_spec c.cell_variant in
    let dt = Unix.gettimeofday () -. t0 in
    Option.iter Progress.step progress;
    (m, dt)
  in
  match pool with
  | None -> List.map eval cells
  | Some pool -> Pool.map_list pool eval cells
