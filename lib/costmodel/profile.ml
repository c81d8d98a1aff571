(** Workload profiles: the dataset-side input to the cost model.

    A profile is the nested-parallelism shape of one whole application run
    — one entry per parent work item with the child-thread count that item
    wants — plus the host driver's launch structure. Benchmark specs carry
    an exact (or documented stand-in) profile computed from the dataset
    (this type is {!Benchmarks.Bench_common.workload}); [dpoptc --predict]
    builds synthetic ones from distribution knobs. *)

type t = Benchmarks.Bench_common.workload = {
  child_sizes : int array;
      (** Per parent work item, in processing order; 0 = no nested work. *)
  rounds : int;  (** Host launches of the parent kernel over the run. *)
  parent_block : int;  (** Threads per block of those host launches. *)
}

let n_items p = Array.length p.child_sizes

let total_child_threads p = Array.fold_left ( + ) 0 p.child_sizes

let mean_size p =
  let n = n_items p in
  if n = 0 then 0.0 else float_of_int (total_child_threads p) /. float_of_int n

(* Deterministic LCG so synthetic profiles are reproducible from the seed
   alone (same generator family as Workloads). *)
let lcg state =
  state := (!state * 0x2545F4914F6CDD1D) + 0x9E3779B9;
  (!state lsr 17) land 0x3FFFFFFF

(** [synthetic ~items ~mean ~skew ()] — a reproducible synthetic profile:
    [items] parent items with mean child size [mean]. [skew] interpolates
    from uniform-ish ([0.]) to heavy-tailed ([1.]): a [skew] fraction of
    the mass concentrates on ~1/16 of the items, mimicking power-law
    degree distributions. *)
let synthetic ?(seed = 1) ?(rounds = 1) ?(parent_block = 128) ~items ~mean
    ?(skew = 0.5) () : t =
  if items <= 0 then invalid_arg "Profile.synthetic: items must be positive";
  let st = ref (seed + 0x9E3779B9) in
  let heavy_every = 16 in
  let heavy_count = max 1 (items / heavy_every) in
  let light_count = items - heavy_count in
  (* Split the total mass so the overall mean is preserved. *)
  let total = float_of_int items *. float_of_int mean in
  let heavy_mass = skew *. total in
  let light_mass = total -. heavy_mass in
  let light_mean =
    if light_count = 0 then 0.0 else light_mass /. float_of_int light_count
  in
  let heavy_mean = heavy_mass /. float_of_int heavy_count in
  let sizes =
    Array.init items (fun i ->
        let m = if i mod heavy_every = 0 then heavy_mean else light_mean in
        if m <= 0.0 then 0
        else
          (* uniform in [0, 2m): keeps the requested mean in expectation *)
          let r = float_of_int (lcg st) /. float_of_int 0x40000000 in
          int_of_float (2.0 *. m *. r))
  in
  { child_sizes = sizes; rounds = max 1 rounds; parent_block }
