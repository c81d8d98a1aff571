(** Dynamic intra-block race detector (the "racecheck" half of dpcheck).

    One [t] shadows one thread block. Every instrumented global/shared
    memory access (see {!Vm}, [Config.check]) is recorded against a
    per-address cell holding the last write and up to two same-epoch reads
    from distinct threads — the classic two-reader trick: if any reader
    other than a later writer exists in the epoch, one of the two retained
    readers is such a reader, so keeping two suffices for detection.

    {b Epoch scheme.} Two counters order accesses:

    - the {e block epoch} increments each time the executor releases a
      [__syncthreads] barrier ({!bump_epoch}); accesses from different
      block epochs are ordered and never race;
    - a {e per-warp epoch} increments when a warp converges on any warp
      collective, including [__syncwarp] ({!bump_wepoch}); two accesses by
      the {e same} warp in different warp epochs are ordered. Accesses by
      {e different} warps are unordered within a block epoch regardless of
      warp epochs.

    Two same-address accesses race iff they are from different threads,
    in the same block epoch, not ordered by a warp epoch, not both
    atomic, and at least one is a write (atomics count as read+write but
    are mutually ordered by the memory controller).

    Reports are deduplicated per (address, kind) and capped; the total
    count and the first few reports flow into {!Metrics} via {!commit}. *)

type kind = Read | Write | Atomic

let pp_kind ppf = function
  | Read -> Fmt.string ppf "read"
  | Write -> Fmt.string ppf "write"
  | Atomic -> Fmt.string ppf "atomic"

type access = {
  a_tid : int;  (** Linear thread index within the block. *)
  a_warp : int;
  a_epoch : int;  (** Block (barrier) epoch. *)
  a_wepoch : int;  (** The warp's collective epoch at access time. *)
  a_kind : kind;
  a_loc : Minicu.Loc.t;
}

type cell = {
  mutable last_write : access option;
  mutable read1 : access option;
  mutable read2 : access option;  (** From a different thread than read1. *)
}

type report = {
  r_buf : int;
  r_off : int;
  r_first : access;
  r_second : access;
}

let pp_report ~kernel ~bidx ppf r =
  let bx, by, bz = bidx in
  Fmt.pf ppf
    "race: %a-%a on buffer %d[%d] in block (%d,%d,%d) of %S: thread %d at \
     %a vs thread %d at %a"
    pp_kind r.r_first.a_kind pp_kind r.r_second.a_kind r.r_buf r.r_off bx by
    bz kernel r.r_first.a_tid Minicu.Loc.pp r.r_first.a_loc r.r_second.a_tid
    Minicu.Loc.pp r.r_second.a_loc

type t = {
  warp_size : int;
  mutable epoch : int;
  wepochs : int array;  (** Per-warp collective epochs. *)
  shadow : (int * int, cell) Hashtbl.t;
  mutable reports : report list;  (** Reversed; deduplicated and capped. *)
  mutable race_count : int;  (** All conflicts, including deduplicated. *)
  dedup : (int * int, unit) Hashtbl.t;
}

let max_reports = 16

let create ~warp_size ~nwarps =
  {
    warp_size;
    epoch = 0;
    wepochs = Array.make (max nwarps 1) 0;
    shadow = Hashtbl.create 64;
    reports = [];
    race_count = 0;
    dedup = Hashtbl.create 16;
  }

let bump_epoch t = t.epoch <- t.epoch + 1

let bump_wepoch t w =
  if w >= 0 && w < Array.length t.wepochs then
    t.wepochs.(w) <- t.wepochs.(w) + 1

(* Are [a] and [b] (same address) a data race? Stored accesses are pruned
   to the current block epoch, but re-check to stay correct if pruning
   changes. *)
let conflict a b =
  a.a_tid <> b.a_tid
  && a.a_epoch = b.a_epoch
  && (a.a_warp <> b.a_warp || a.a_wepoch = b.a_wepoch)
  && (not (a.a_kind = Atomic && b.a_kind = Atomic))
  && (a.a_kind <> Read || b.a_kind <> Read)

let report t ~buf ~off first second =
  t.race_count <- t.race_count + 1;
  if not (Hashtbl.mem t.dedup (buf, off)) then begin
    Hashtbl.replace t.dedup (buf, off) ();
    if List.length t.reports < max_reports then
      t.reports <-
        { r_buf = buf; r_off = off; r_first = first; r_second = second }
        :: t.reports
  end

(** [record t ~tid ~kind ~loc ptr] — log one access and report any
    conflict with the retained accesses to the same address. *)
let record t ~tid ~(kind : kind) ~loc (ptr : Value.ptr) =
  let w = tid / t.warp_size in
  let a =
    {
      a_tid = tid;
      a_warp = w;
      a_epoch = t.epoch;
      a_wepoch = (if w < Array.length t.wepochs then t.wepochs.(w) else 0);
      a_kind = kind;
      a_loc = loc;
    }
  in
  let key = (ptr.Value.buf, ptr.Value.off) in
  let cell =
    match Hashtbl.find_opt t.shadow key with
    | Some c -> c
    | None ->
        let c = { last_write = None; read1 = None; read2 = None } in
        Hashtbl.replace t.shadow key c;
        c
  in
  (* prune accesses from earlier block epochs: they are barrier-ordered *)
  let cur o =
    match o with Some x when x.a_epoch = t.epoch -> o | _ -> None
  in
  cell.last_write <- cur cell.last_write;
  cell.read1 <- cur cell.read1;
  cell.read2 <- cur cell.read2;
  let buf = ptr.Value.buf and off = ptr.Value.off in
  let against prev =
    match prev with
    | Some p when conflict p a -> report t ~buf ~off p a
    | _ -> ()
  in
  (match kind with
  | Read -> against cell.last_write
  | Write | Atomic ->
      against cell.last_write;
      against cell.read1;
      against cell.read2);
  (* retain *)
  match kind with
  | Write | Atomic -> cell.last_write <- Some a
  | Read -> (
      match cell.read1 with
      | None -> cell.read1 <- Some a
      | Some r1 when r1.a_tid = a.a_tid -> cell.read1 <- Some a
      | Some _ -> cell.read2 <- Some a)

(** [commit t ~kernel ~bidx metrics] — charge this block's findings to
    [metrics], unweighted: the total conflict count, and the block's
    rendered reports (capped when recorded), in the order found, ahead of
    earlier blocks' reports. *)
let commit t ~kernel ~bidx (metrics : Metrics.t) =
  if t.race_count > 0 then begin
    metrics.races_detected <- metrics.races_detected + t.race_count;
    metrics.race_reports <-
      List.rev_map (Fmt.str "%a" (pp_report ~kernel ~bidx)) t.reports
      @ metrics.race_reports
  end
