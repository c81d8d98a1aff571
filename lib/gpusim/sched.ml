(** Discrete-event grid/block scheduler.

    The device model:

    - a fixed pool of SMs; each SM serves one block at a time with
      {!Config.sm_warp_parallelism} warp-instructions per cycle (blocks queue
      on the earliest-free SM, approximating the FIFO hardware block
      scheduler);
    - a single grid-management unit: every device-side launch must be
      serviced by it, one launch per {!Config.launch_service_interval}
      cycles. When thousands of small grids are launched at once they queue
      here — this is the launch congestion the paper identifies as the first
      cost of naive dynamic parallelism;
    - host-side launches pay {!Config.host_launch_latency} but do not
      contend with the device launch queue.

    {b Multi-tenancy.} The device hosts any number of {e streams}. Each
    stream has its own loaded program and aggregation auto-parameters, its
    own grid-id namespace, and its own {!Metrics.t}; all streams share the
    SMs, the grid-management launch queue, device memory and the clock —
    contention between tenants is the point of the model (see
    {e lib/tenancy}). A device always has a {e default stream} (id 0) whose
    metrics record is the device-wide one, so the classic single-program
    API ({!Device}) is exactly the one-stream special case. Every host
    launch, from {!Device} or the tenancy driver, goes through
    {!host_launch}.

    {b One domain per device.} Every block of a device executes on the
    domain that drives it, one at a time in deterministic event order, so
    programs whose cross-block communication is commutative (atomics)
    behave as on real hardware; host parallelism lives one level up, in
    {e Harness.Pool}'s independent experiment cells. A block runs against
    its stream's {!Metrics.t}, where the VM counts what the block observes
    as it runs (serialized launches, out-of-bounds accesses, races), and
    {!commit_block} then charges the cost the VM returns at the block's
    weight; a block that raises leaves only those observations.

    {b Stratified grid sampling} ([Config.sampling]). Grids with at least
    [block_threshold] blocks enqueue only a deterministic stratified sample
    of their blocks ({!select_blocks}): the flat block range splits into
    contiguous strata and each stratum contributes a systematic sample
    (hashed phase, so the sample is a pure function of the seed and grid
    identity). Every sampled block carries the weight [N_h/k_h] of the
    stratum it represents; commits charge metrics at the weight, advance the
    launch queue by the weighted service time, and fold the skipped compute
    into the clock at the next drain.
    Blocks that issue at least [launch_threshold] device launches likewise
    dispatch a sample of them ({!select_launches}) with multiplicative
    inherited weights — the case that matters for CDP child swarms.
    Per-stratum sums and sum-of-squares accumulate into
    {!Metrics.sampling_stats} at grid completion, giving the
    stratified-variance error bound reported with extrapolated results. *)

type dim3 = int * int * int

(** A loaded program and a resolved kernel. *)
type prog = Bytecode.prog

type kernel = Bytecode.func

(** One host stream / tenant sharing the device. Grid ids are dense per
    stream (a per-stream namespace), and every launch, block and compute
    cycle of the stream's grids is charged to [st_metrics]. *)
type stream = {
  st_id : int;  (** Tenant id; 0 is the device's default stream. *)
  mutable st_prog : prog option;
  mutable st_auto : (string * Dpopt.Aggregation.auto_param list) list;
      (** Kernel name -> the trailing buffers {!host_launch} allocates. *)
  st_metrics : Metrics.t;
  mutable st_next_grid_id : int;
}

(** A unit of tenant work: one root grid plus every descendant grid it
    spawns (device-side children, host followups from aggregation).
    [j_open_grids] counts launched-but-unfinished grids; the job is
    complete when it returns to 0, at which point [j_finish] holds the
    last finish time over all its grids. Maintained by {!launch_grid} /
    {!commit_block}; consumed by the tenancy scheduler ({e lib/tenancy}). *)
type job = { mutable j_open_grids : int; mutable j_finish : float }

let make_job () = { j_open_grids = 0; j_finish = 0.0 }

(* Per-stratum accounting of a sampled grid: committed blocks, sum and
   sum-of-squares of their compute cycles. Folded into the stream's
   Metrics.sampling_stats at grid completion. *)
type strata = {
  sa_counts : int array;  (* N_h: total blocks per stratum *)
  sa_n : int array;  (* blocks committed so far per stratum *)
  sa_sum : float array;
  sa_sumsq : float array;
}

type grid = {
  g_id : int;
  g_stream : stream;
  g_job : job option;
  g_kernel : kernel;
  g_grid : dim3;
  g_block : dim3;
  g_args : Value.t list;
  g_default_idx : int;
  g_weight : float;
      (** Inherited launch-sampling weight: this grid stands for
          [g_weight] identical grids. [1.0] on exact runs. *)
  g_strata : strata option;  (** [Some] exactly when block-sampled. *)
  mutable g_blocks_left : int;  (** Enqueued (sampled) blocks left. *)
  mutable g_last_finish : float;
}

(** A ready block: grid, block index, block-sampling weight (within-grid;
    the effective weight is [g_weight *. w]), and stratum index ([-1] when
    the grid is not block-sampled). *)
type event = Block_ready of grid * dim3 * float * int

type t = {
  cfg : Config.t;
  mem : Memory.t;
  metrics : Metrics.t;  (** Device-wide; same record as the default stream's. *)
  events : event Event_queue.t;
  sms : float array;  (** Per-SM earliest-free time. *)
  mutable launch_q_free : float;  (** Grid-management unit earliest-free. *)
  mutable clock : float;
  mutable deferred_work : float;
      (** SM-cycles represented by sampled-out blocks; folded into the
          clock (divided across SMs) at the next {!run_to_idle} drain. *)
  default_stream : stream;
  mutable next_stream_id : int;
  trace : Trace.t;
  scratch : Vm.scratch;  (** Reusable per-block thread arena for the VM. *)
}

let fresh_stream id metrics =
  {
    st_id = id;
    st_prog = None;
    st_auto = [];
    st_metrics = metrics;
    st_next_grid_id = 0;
  }

let create (cfg : Config.t) (mem : Memory.t) (metrics : Metrics.t) =
  {
    cfg;
    mem;
    metrics;
    events = Event_queue.create ();
    sms = Array.make cfg.num_sms 0.0;
    launch_q_free = 0.0;
    clock = 0.0;
    deferred_work = 0.0;
    default_stream = fresh_stream 0 metrics;
    next_stream_id = 1;
    trace = Trace.create ();
    scratch = Vm.create_scratch ();
  }

let default_stream t = t.default_stream

let new_stream t =
  let s = fresh_stream t.next_stream_id (Metrics.create ()) in
  t.next_stream_id <- t.next_stream_id + 1;
  s

let stream_metrics (s : stream) = s.st_metrics
let clock t = t.clock
let trace t = t.trace

let load_stream ?(auto_params = []) t (s : stream) (prog : Minicu.Ast.program)
    =
  s.st_prog <- Some (Bytecode.compile t.cfg prog);
  s.st_auto <- auto_params

let stream_prog_exn (s : stream) =
  match s.st_prog with
  | Some p -> p
  | None ->
      if s.st_id = 0 then Value.error "no program loaded on the device"
      else Value.error "no program loaded on stream %d" s.st_id

let resolve_kernel (stream : stream) name =
  let bf = Bytecode.find_func_exn (stream_prog_exn stream) name in
  if bf.bf_kind <> Minicu.Ast.Global then
    Value.error "%S is not a __global__ kernel" name;
  bf

(* ------------------------------------------------------------------ *)
(* Deterministic sample selection                                      *)
(* ------------------------------------------------------------------ *)

(* A small xorshift-multiply mixer over OCaml's 63-bit ints (constants kept
   under 2^62). Quality only needs to decorrelate sample phases across
   grids and strata; determinism across runs is the real requirement. *)
let mix h =
  let h = (h lxor (h lsr 33)) * 0x2545F4914F6CDD1D in
  let h = (h lxor (h lsr 29)) * 0x3C79AC492BA7B653 in
  (h lxor (h lsr 31)) land max_int

(* Uniform in [0, 1) from the low 24 bits. *)
let phase01 h = float_of_int (h land 0xFFFFFF) /. 16777216.0

let sample_key (sp : Config.sampling) ~stream_id ~gid ~salt =
  mix ((((sp.seed * 31) + stream_id) * 31) + (gid * 31) + salt)

(* Round a sampling fraction to a per-stratum take count in [1, n]. *)
let take_count frac n =
  let k = int_of_float (Float.round (frac *. float_of_int n)) in
  max 1 (min n k)

(* Systematic sample of [k] of [n] positions with a deterministic hashed
   phase: floor(phase + j*step), step = n/k, phase in [0, step). Indices
   are strictly increasing and < n. *)
let systematic ~key ~n ~k =
  let stepf = float_of_int n /. float_of_int k in
  let phase = phase01 key *. stepf in
  Array.init k (fun j -> int_of_float (phase +. (float_of_int j *. stepf)))

(* Stratified block selection for a grid of [nblocks] blocks: the stratum
   population counts and the flat indices (ascending) with per-block
   weight and stratum index. [None] when the grid runs exactly — sampling
   is off, the grid is below the threshold, or the sample would cover
   every block. *)
let select_blocks (sampling : Config.sampling option) ~stream_id ~gid
    ~nblocks =
  match sampling with
  | Some sp
    when sp.block_threshold > 0
         && nblocks >= sp.block_threshold
         && sp.block_frac < 1.0 ->
      let nh = max 1 (min sp.strata nblocks) in
      let counts =
        Array.init nh (fun h -> ((h + 1) * nblocks / nh) - (h * nblocks / nh))
      in
      let sel = ref [] in
      let total = ref 0 in
      for h = nh - 1 downto 0 do
        let lo = h * nblocks / nh in
        let n_h = counts.(h) in
        if n_h > 0 then begin
          let k = take_count sp.block_frac n_h in
          if k >= n_h then begin
            for i = lo + n_h - 1 downto lo do
              sel := (i, 1.0, h) :: !sel
            done;
            total := !total + n_h
          end
          else begin
            let key = sample_key sp ~stream_id ~gid ~salt:h in
            let idx = systematic ~key ~n:n_h ~k in
            let w = float_of_int n_h /. float_of_int k in
            for j = k - 1 downto 0 do
              sel := (lo + idx.(j), w, h) :: !sel
            done;
            total := !total + k
          end
        end
      done;
      if !total >= nblocks then None else Some (counts, !sel)
  | _ -> None

(* Launch sampling for the launches one block of grid [g] issued, in issue
   order: the launches to dispatch, each with its weight. [None] when all
   of them dispatch at weight 1 — sampling is off, the block issued fewer
   than the threshold, or the sample would keep every launch.

   Child-launch sizes are heavy-tailed (hub vertices spawn grids orders of
   magnitude larger than the median), so a uniform position sample
   under-covers exactly the launches that carry the cycles. Certainty
   stratum: the top ceil(k/2) launches by child thread count are always
   dispatched at weight 1; the remaining budget is a systematic sample
   over the other positions, weighted by that sub-population alone. Launch
   dims are static and ties break on position, so the pick is as
   deterministic as the plain systematic one. *)
let select_launches (sampling : Config.sampling option) (g : grid)
    (bx, by, bz) (launches : Runtime.launch_req list) =
  match sampling with
  | Some sp
    when sp.launch_threshold > 0
         && List.compare_length_with launches sp.launch_threshold >= 0
         && sp.launch_frac < 1.0 ->
      let n = List.length launches in
      let k = take_count sp.launch_frac n in
      if k >= n then None
      else begin
        let gx, gy, _ = g.g_grid in
        let key =
          sample_key sp ~stream_id:g.g_stream.st_id ~gid:g.g_id
            ~salt:((bz * gy * gx) + (by * gx) + bx + 0x51ED)
        in
        let arr = Array.of_list launches in
        let threads i =
          Value.dim3_total arr.(i).Runtime.lr_grid
          * Value.dim3_total arr.(i).Runtime.lr_block
        in
        let order = Array.init n Fun.id in
        Array.sort
          (fun i j ->
            match compare (threads j) (threads i) with
            | 0 -> compare i j
            | d -> d)
          order;
        (* k = 1 leaves no budget for the sampled stratum; degrade to the
           plain systematic sample (c = 0) rather than dropping the tail
           mass entirely. *)
        let c = if k >= 2 then (k + 1) / 2 else 0 in
        let wsel = Array.make n 0.0 in
        for j = 0 to c - 1 do
          wsel.(order.(j)) <- 1.0
        done;
        let rest = Array.make (n - c) 0 in
        let ri = ref 0 in
        for i = 0 to n - 1 do
          if wsel.(i) = 0.0 then begin
            rest.(!ri) <- i;
            incr ri
          end
        done;
        let ks = k - c in
        let lw = float_of_int (n - c) /. float_of_int ks in
        Array.iter
          (fun j -> wsel.(rest.(j)) <- lw)
          (systematic ~key ~n:(n - c) ~k:ks);
        let out = ref [] in
        for i = n - 1 downto 0 do
          if wsel.(i) > 0.0 then out := (arr.(i), wsel.(i)) :: !out
        done;
        Some !out
      end
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Launches                                                            *)
(* ------------------------------------------------------------------ *)

(** Route a device-side launch through the grid-management unit. Returns the
    time at which the child grid becomes schedulable. The queue is shared
    device-wide; the wait is charged to the issuing [stream]'s metrics, so
    under tenancy each tenant sees the congestion {e it experienced}
    (including the part caused by other tenants' launches ahead of it).
    With [weight] > 1 (launch sampling) the one serviced launch stands for
    [weight] identical ones: the queue advances by the weighted service
    time and the charged busy time includes the arithmetic-series wait of
    the represented copies; at [weight = 1.0] every expression reduces
    bitwise to the unweighted one. *)
let process_device_launch ?(weight = 1.0) t (stream : stream) ~issue =
  let cfg = t.cfg in
  let m = stream.st_metrics in
  let interval = float_of_int cfg.launch_service_interval in
  let start = Float.max issue t.launch_q_free in
  t.launch_q_free <- start +. (weight *. interval);
  let ready = start +. interval +. float_of_int cfg.device_launch_latency in
  m.device_launches <-
    m.device_launches + max 1 (int_of_float (Float.round weight));
  m.breakdown.launch_cycles <-
    m.breakdown.launch_cycles
    +. (weight *. (ready -. issue))
    +. (interval *. weight *. (weight -. 1.0) /. 2.0);
  (* Queue depth seen by this launch: launches ahead of it, i.e. the time
     it waited for service in units of the service interval. [start] (not
     the post-service [launch_q_free]) is the right numerator — using the
     latter would count the launch just serviced as pending ahead of
     itself, overstating the congestion metric by one. *)
  let pending =
    if cfg.launch_service_interval <= 0 then 0
    else
      int_of_float
        ((start -. issue) /. float_of_int cfg.launch_service_interval)
  in
  if pending > m.max_pending_launches then m.max_pending_launches <- pending;
  ready

let process_host_launch ~weight t (stream : stream) ~issue =
  let m = stream.st_metrics in
  let ready = issue +. float_of_int t.cfg.host_launch_latency in
  m.host_launches <-
    m.host_launches + max 1 (int_of_float (Float.round weight));
  m.breakdown.launch_cycles <-
    m.breakdown.launch_cycles +. (weight *. (ready -. issue));
  ready

(* Route a launch (host latency or the device launch queue) and enqueue
   the blocks of its grid — under [Config.sampling], a stratified sample of
   them. The shape was checked when the launch was issued: by
   {!host_launch}, or by the VM for launches from kernels and host
   followups. The grid id comes out of [stream]'s
   namespace; with [?job] the grid is attached to that job's open-grid
   accounting. [weight] is the launch-sampling weight the grid inherits
   (1 on exact paths). *)
let launch_grid ?job t (stream : stream) ~weight ~from_host ~issue
    ~(kernel : kernel) ~(grid : dim3) ~(block : dim3) ~(args : Value.t list)
    ~default_idx =
  let ready =
    if from_host then process_host_launch ~weight t stream ~issue
    else process_device_launch ~weight t stream ~issue
  in
  let gx, gy, gz = grid in
  let nblocks = gx * gy * gz in
  let gid = stream.st_next_grid_id in
  let selection =
    select_blocks t.cfg.sampling ~stream_id:stream.st_id ~gid ~nblocks
  in
  let g =
    {
      g_id = gid;
      g_stream = stream;
      g_job = job;
      g_kernel = kernel;
      g_grid = grid;
      g_block = block;
      g_args = args;
      g_default_idx = default_idx;
      g_weight = weight;
      g_strata =
        (match selection with
        | None -> None
        | Some (counts, _) ->
            let nh = Array.length counts in
            Some
              {
                sa_counts = counts;
                sa_n = Array.make nh 0;
                sa_sum = Array.make nh 0.0;
                sa_sumsq = Array.make nh 0.0;
              });
      g_blocks_left =
        (match selection with
        | None -> nblocks
        | Some (_, sel) -> List.length sel);
      g_last_finish = ready;
    }
  in
  stream.st_next_grid_id <- stream.st_next_grid_id + 1;
  (match job with Some j -> j.j_open_grids <- j.j_open_grids + 1 | None -> ());
  stream.st_metrics.grids_launched <-
    stream.st_metrics.grids_launched
    + max 1 (int_of_float (Float.round weight));
  Trace.record t.trace
    (Trace.Grid_launched
       {
         t_tenant = stream.st_id;
         t_grid_id = g.g_id;
         t_kernel = kernel.bf_name;
         t_blocks = nblocks;
         t_from_host = from_host;
         t_issue = issue;
         t_ready = ready;
       });
  match selection with
  | None ->
      for bz = 0 to gz - 1 do
        for by = 0 to gy - 1 do
          for bx = 0 to gx - 1 do
            Event_queue.push t.events ready
              (Block_ready (g, (bx, by, bz), 1.0, -1))
          done
        done
      done
  | Some (_, sel) ->
      (* Ascending flat order matches the exact loop order, so insertion
         sequence (the heap's tie-break) is deterministic either way. *)
      List.iter
        (fun (flat, w, h) ->
          let bz = flat / (gy * gx) in
          let rem = flat mod (gy * gx) in
          Event_queue.push t.events ready
            (Block_ready (g, (rem mod gx, rem / gx, bz), w, h)))
        sel

(** The one host-launch path. Resolves [kernel] on [stream], checks the
    launch shape, allocates the stream's aggregation capture buffers for
    it (boxed, zero-filled, sized from this launch's configuration) and
    appends them to [args], checks the argument count, and issues the
    launch at [issue] (default: the current clock). *)
let host_launch ?job ?(role = `Parent) ?issue t (stream : stream)
    ~kernel:name ~(grid : dim3) ~(block : dim3) ~(args : Value.t list) =
  let kernel = resolve_kernel stream name in
  Runtime.check_launch_shape t.cfg ~kernel:name ~grid ~block;
  let auto =
    match List.assoc_opt name stream.st_auto with
    | None -> []
    | Some specs ->
        let grid_blocks = Value.dim3_total grid
        and block_threads = Value.dim3_total block in
        (* Capture buffers hold argument values of any kind (pointers,
           floats, ints): boxed storage at every size. *)
        List.map
          (fun (ap : Dpopt.Aggregation.auto_param) ->
            Value.Ptr
              (Memory.alloc_boxed t.mem
                 (ap.ap_elems ~grid_blocks ~block_threads)
                 ~init:(Value.Int 0)))
          specs
  in
  let nauto = List.length auto and nuser = List.length args in
  if nuser + nauto <> kernel.bf_nparams then
    Value.error
      "launch of %S: expected %d arguments (%d user + %d auto), got %d user"
      name kernel.bf_nparams
      (kernel.bf_nparams - nauto)
      nauto nuser;
  launch_grid ?job t stream ~weight:1.0 ~from_host:true
    ~issue:(Option.value issue ~default:t.clock)
    ~kernel ~grid ~block ~args:(args @ auto)
    ~default_idx:
      (match role with
      | `Parent -> Metrics.tag_parent
      | `Child -> Metrics.tag_child)

let dispatch_launch_req ?job t (stream : stream) ~weight ~base
    (lr : Runtime.launch_req) =
  launch_grid ?job t stream ~weight ~from_host:lr.lr_from_host ~issue:base
    ~kernel:(resolve_kernel stream lr.lr_kernel)
    ~grid:lr.lr_grid ~block:lr.lr_block ~args:lr.lr_args
    ~default_idx:Metrics.tag_child

(* Fold a sampled grid's per-stratum sums into the stream's sampling stats:
   extrapolated total Σ N_h·mean_h and stratified variance
   Σ N_h²·(1 − n_h/N_h)·s_h²/n_h, both scaled by the grid's inherited
   weight. *)
let fold_strata (g : grid) =
  match g.g_strata with
  | None -> ()
  | Some s ->
      let ss = g.g_stream.st_metrics.sampling in
      ss.sampled_grids <- ss.sampled_grids + 1;
      Array.iteri
        (fun h count ->
          let taken = s.sa_n.(h) in
          if taken > 0 then begin
            let n = float_of_int taken and nn = float_of_int count in
            let mean = s.sa_sum.(h) /. n in
            ss.sampled_blocks <- ss.sampled_blocks + taken;
            ss.skipped_blocks <- ss.skipped_blocks + (count - taken);
            ss.est_total <- ss.est_total +. (g.g_weight *. nn *. mean);
            if taken > 1 && count > taken then begin
              let var =
                Float.max 0.0
                  ((s.sa_sumsq.(h) -. (n *. mean *. mean)) /. (n -. 1.0))
              in
              ss.est_variance <-
                ss.est_variance
                +. g.g_weight *. g.g_weight *. nn *. nn
                   *. (1.0 -. (n /. nn))
                   *. var /. n
            end
          end)
        s.sa_counts

let grid_completed t (g : grid) =
  (* Grid-granularity aggregation: the host performs the aggregated
     launch once the parent grid has drained (Section V-A). *)
  let stream = g.g_stream in
  let launches =
    match g.g_kernel.bf_followup with
    | None -> []
    | Some entry ->
        Vm.run_host_stmts (stream_prog_exn stream) g.g_kernel ~entry
          ~args:g.g_args ~grid:g.g_grid ~block:g.g_block ~mem:t.mem
          ~cfg:t.cfg ~metrics:stream.st_metrics
  in
  fold_strata g;
  List.iter
    (fun (lr : Runtime.launch_req) ->
      dispatch_launch_req t stream ?job:g.g_job ~weight:g.g_weight
        ~base:g.g_last_finish
        { lr with lr_from_host = true })
    launches

(* ------------------------------------------------------------------ *)
(* Block commit                                                        *)
(* ------------------------------------------------------------------ *)

(* The one rule for how a block's cost reaches its stream: a block of
   weight [w] charges [w] times its per-tag cycles, and round(w * n) for
   its count n of blocks (1), threads and serialized launches. The VM
   counted the serialized launches once each as they ran, so only the
   difference is added here. *)
let charge_block (m : Metrics.t) ~w ~threads (r : Runtime.result) =
  let scale n = int_of_float (Float.round (w *. float_of_int n)) in
  let b = m.breakdown and c = r.r_tag_cycles in
  b.parent_cycles <- b.parent_cycles +. (w *. c.(Metrics.tag_parent));
  b.child_cycles <- b.child_cycles +. (w *. c.(Metrics.tag_child));
  b.agg_cycles <- b.agg_cycles +. (w *. c.(Metrics.tag_agg));
  b.disagg_cycles <- b.disagg_cycles +. (w *. c.(Metrics.tag_disagg));
  m.blocks_executed <- m.blocks_executed + scale 1;
  m.threads_executed <- m.threads_executed + scale threads;
  m.serialized_launches <-
    m.serialized_launches + scale r.r_serialized - r.r_serialized

(* Commit one executed block, in deterministic event order: SM assignment
   and timing, {!charge_block} at its sampling weight, trace, launch
   dispatch at the weights {!select_launches} chose, stratum bookkeeping,
   grid completion. *)
let commit_block t ~te (Block_ready (g, bidx, bw, stratum))
    (r : Runtime.result) =
  let stream = g.g_stream in
  let w = g.g_weight *. bw in
  (* earliest-free SM *)
  let sm = ref 0 in
  for i = 1 to Array.length t.sms - 1 do
    if t.sms.(i) < t.sms.(!sm) then sm := i
  done;
  let start = Float.max te t.sms.(!sm) in
  charge_block stream.st_metrics ~w ~threads:(Value.dim3_total g.g_block) r;
  let sched = float_of_int t.cfg.block_sched_overhead in
  let finish = start +. sched +. r.r_compute_cycles in
  t.sms.(!sm) <- finish;
  if finish > t.clock then t.clock <- finish;
  if w <> 1.0 then
    t.deferred_work <-
      t.deferred_work +. ((w -. 1.0) *. (sched +. r.r_compute_cycles));
  Trace.record t.trace
    (Trace.Block_dispatched
       {
         b_tenant = stream.st_id;
         b_grid_id = g.g_id;
         b_sm = !sm;
         b_start = start;
         b_finish = finish;
       });
  let par = float_of_int t.cfg.sm_warp_parallelism in
  let dispatch lw (lr : Runtime.launch_req) =
    let offset = Float.min (lr.lr_issue_cost /. par) r.r_compute_cycles in
    dispatch_launch_req t stream ?job:g.g_job ~weight:(w *. lw)
      ~base:(start +. sched +. offset)
      lr
  in
  (match select_launches t.cfg.sampling g bidx r.r_launches with
  | None -> List.iter (dispatch 1.0) r.r_launches
  | Some sel ->
      let ss = stream.st_metrics.sampling in
      let k = List.length sel in
      ss.sampled_launches <- ss.sampled_launches + k;
      ss.skipped_launches <-
        ss.skipped_launches + (List.length r.r_launches - k);
      List.iter (fun (lr, lw) -> dispatch lw lr) sel);
  (match g.g_strata with
  | Some s when stratum >= 0 ->
      s.sa_n.(stratum) <- s.sa_n.(stratum) + 1;
      s.sa_sum.(stratum) <- s.sa_sum.(stratum) +. r.r_compute_cycles;
      s.sa_sumsq.(stratum) <-
        s.sa_sumsq.(stratum) +. (r.r_compute_cycles *. r.r_compute_cycles)
  | _ -> ());
  g.g_blocks_left <- g.g_blocks_left - 1;
  if finish > g.g_last_finish then g.g_last_finish <- finish;
  if g.g_blocks_left = 0 then begin
    Trace.record t.trace
      (Trace.Grid_completed
         {
           c_tenant = stream.st_id;
           c_grid_id = g.g_id;
           c_finish = g.g_last_finish;
         });
    (* followups launch before the job's open count drops, so a job with a
       pending host followup never looks momentarily complete *)
    grid_completed t g;
    match g.g_job with
    | Some j ->
        j.j_open_grids <- j.j_open_grids - 1;
        if g.g_last_finish > j.j_finish then j.j_finish <- g.g_last_finish
    | None -> ()
  end

let step t =
  let te, (Block_ready (g, bidx, _, _) as ev) = Event_queue.pop t.events in
  let stream = g.g_stream in
  commit_block t ~te ev
    (Vm.run_block t.scratch (stream_prog_exn stream) g.g_kernel ~args:g.g_args
       ~gdim:g.g_grid ~bdim:g.g_block ~bidx ~mem:t.mem ~cfg:t.cfg
       ~metrics:stream.st_metrics ~default_idx:g.g_default_idx)

(** Earliest pending block-event time, for external event loops
    ({e lib/tenancy}) that interleave host-side decisions with device
    progress. *)
let next_event_time t = Event_queue.peek_time t.events

(** Drain all pending work; returns the simulated clock. Sampled-out work
    ({!Config.sampling}) is folded into the clock here, spread across the
    SMs. *)
let run_to_idle t =
  while not (Event_queue.is_empty t.events) do
    step t
  done;
  if t.deferred_work > 0.0 then begin
    t.clock <- t.clock +. (t.deferred_work /. float_of_int (Array.length t.sms));
    t.deferred_work <- 0.0
  end;
  t.metrics.makespan <- t.clock;
  t.clock
