(** The multi-tenant device simulation: N host streams submitting jobs to
    one shared {!Gpusim.Sched}, under an admission policy.

    The scheduler interleaves two deterministic event sources:

    - the {e device}: block events inside {!Gpusim.Sched}, advanced with
      {!Gpusim.Sched.step};
    - the {e hosts}: a decision queue holding every job arrival up front,
      plus job completions as they are discovered.

    The invariant is strict merge order: the device is stepped only while
    its next event is due no later than the next host decision, so a
    completion at cycle 90,000 discovered while stepping toward it can
    never delay an arrival at cycle 50,000 — and every admission happens
    at its decision's timestamp. Completions are harvested after each
    step: a job whose {!Gpusim.Sched.job.j_open_grids} count returned to
    zero finished at [j_finish], which frees its admission slot {e at that
    time} (a decision pushed back into the queue, ordered like any other).

    Both queues break ties in insertion order, all tenant scans are in
    ascending tenant id, and memory is allocated in admission order, so a
    run is a pure function of (config, policy, slots, traffic): repeated
    runs are byte-identical, whatever the host parallelism around them. *)

open Gpusim

type cell = {
  sm_cfg : Config.t;
  policy : Policy.t;
  slots : int;  (** Concurrent admitted jobs, device-wide. *)
}

type job_result = {
  jr_tenant : int;
  jr_seq : int;
  jr_arrival : float;
  jr_admit : float;  (** When the policy admitted it (>= arrival). *)
  jr_finish : float;
}

let latency jr = jr.jr_finish -. jr.jr_arrival

(** Per-tenant launch-subsystem totals, copied out of the stream metrics
    (plain data, safe to ship across domains). *)
type tenant_totals = {
  tt_tenant : int;
  tt_grids : int;
  tt_host_launches : int;
  tt_device_launches : int;
  tt_launch_cycles : float;
  tt_max_pending : int;
}

type run = {
  rn_jobs : job_result list;  (** Sorted by (tenant, seq). *)
  rn_totals : tenant_totals list;  (** Sorted by tenant; all tenants. *)
  rn_makespan : float;
  rn_mem_hash : int;  (** Order-sensitive hash of the full memory image. *)
}

(* ---- memory fingerprint ---- *)

let mix acc x = (acc lxor x) * 0x100000001B3 land max_int

let hash_value acc : Value.t -> int = function
  | Value.Unit -> mix acc 1
  | Value.Int i -> mix (mix acc 2) i
  | Value.Float f -> mix (mix acc 3) (Int64.to_int (Int64.bits_of_float f))
  | Value.Bool b -> mix (mix acc 4) (Bool.to_int b)
  | Value.Dim3 (x, y, z) -> mix (mix (mix (mix acc 5) x) y) z
  | Value.Ptr p -> mix (mix (mix acc 6) p.Value.buf) p.Value.off

let memory_hash mem =
  List.fold_left
    (fun acc buf -> Array.fold_left hash_value (mix acc 7) buf)
    0x811C9DC5
    (Memory.dump mem ~first:(Memory.buffer_count mem))

(* ---- the simulation ---- *)

type decision = Arrive of Traffic.job | Complete of int  (** tenant *)

type active = {
  ac_job : Traffic.job;
  ac_sched : Sched.job;
  ac_admit : float;
}

(** [run cell ~tenants app jobs] — drive [jobs] (any subset of a
    [tenants]-tenant traffic, e.g. one tenant's isolated stream) through
    one shared device loaded with [app] on every stream.
    @raise Invalid_argument if [cell.slots] or [tenants] is not positive. *)
let run (cell : cell) ~tenants (app : App.compiled) (jobs : Traffic.job list) :
    run =
  if cell.slots <= 0 then invalid_arg "Sim.run: slots must be positive";
  if tenants <= 0 then invalid_arg "Sim.run: tenants must be positive";
  let mem = Memory.create () in
  let metrics = Metrics.create () in
  let sched = Sched.create cell.sm_cfg mem metrics in
  (* one stream per tenant, in tenant order (stream id = tenant + 1), so
     isolated and shared runs of the same tenant agree on stream layout *)
  let streams =
    Array.init tenants (fun _ ->
        let s = Sched.new_stream sched in
        Sched.load_stream ~auto_params:app.auto_params sched s app.prog;
        s)
  in
  let decisions = Event_queue.create () in
  List.iter (fun j -> Event_queue.push decisions j.Traffic.jb_arrival (Arrive j)) jobs;
  let waiting = Array.init tenants (fun _ -> Queue.create ()) in
  let inflight = Array.make tenants 0 in
  let free_slots = ref cell.slots in
  let pstate = Policy.init cell.policy ~tenants in
  let actives = ref [] in
  let results = ref [] in

  let admit (j : Traffic.job) ~now =
    let t = j.jb_tenant in
    let n = Array.length j.jb_degs in
    let total = Array.fold_left ( + ) 0 j.jb_degs in
    let off = Array.make n 0 in
    for i = 1 to n - 1 do
      off.(i) <- off.(i - 1) + j.jb_degs.(i - 1)
    done;
    let alloc_ints a =
      let p = Memory.alloc mem (Array.length a) ~init:(Value.Int 0) in
      Memory.write_ints mem p a;
      Value.Ptr p
    in
    let d_deg = alloc_ints j.jb_degs in
    let d_off = alloc_ints off in
    let d_out = Value.Ptr (Memory.alloc mem (max 1 total) ~init:(Value.Int 0)) in
    let grid, block = App.parent_launch ~n in
    let sjob = Sched.make_job () in
    Sched.host_launch ~job:sjob ~issue:now sched streams.(t)
      ~kernel:App.parent_kernel ~grid ~block
      ~args:[ d_deg; d_off; d_out; Value.Int n ];
    inflight.(t) <- inflight.(t) + 1;
    decr free_slots;
    actives := { ac_job = j; ac_sched = sjob; ac_admit = now } :: !actives
  in

  (* a finished job (open-grid count back to zero) releases its slot at
     its finish time — a decision like any other, so admissions it
     enables happen at the right simulated moment *)
  let harvest () =
    let done_, live =
      List.partition (fun a -> a.ac_sched.Sched.j_open_grids = 0) !actives
    in
    actives := live;
    List.iter
      (fun a ->
        let j = a.ac_job in
        results :=
          {
            jr_tenant = j.jb_tenant;
            jr_seq = j.jb_seq;
            jr_arrival = j.jb_arrival;
            jr_admit = a.ac_admit;
            jr_finish = a.ac_sched.j_finish;
          }
          :: !results;
        Event_queue.push decisions a.ac_sched.j_finish (Complete j.jb_tenant))
      done_
  in

  let try_admit ~now =
    let continue = ref true in
    while !continue && !free_slots > 0 do
      let cands =
        Array.to_list
          (Array.mapi
             (fun t q ->
               if Queue.is_empty q then None
               else
                 Some
                   {
                     Policy.cd_tenant = t;
                     cd_global = (Queue.peek q).Traffic.jb_global;
                     cd_inflight = inflight.(t);
                   })
             waiting)
        |> List.filter_map Fun.id
      in
      match Policy.select cell.policy pstate cands with
      | None -> continue := false
      | Some t ->
          let j = Queue.pop waiting.(t) in
          Policy.admitted pstate ~tenant:t ~work:(Traffic.work j);
          admit j ~now
    done
  in

  let process_decisions_at td =
    let rec drain () =
      match Event_queue.peek_time decisions with
      | Some t when t = td ->
          (match snd (Event_queue.pop decisions) with
          | Arrive j -> Queue.add j waiting.(j.jb_tenant)
          | Complete t ->
              inflight.(t) <- inflight.(t) - 1;
              incr free_slots);
          drain ()
      | _ -> ()
    in
    drain ();
    try_admit ~now:td
  in

  let rec loop () =
    match (Event_queue.peek_time decisions, Sched.next_event_time sched) with
    | None, None -> ()
    | Some td, Some te when te <= td ->
        Sched.step sched;
        harvest ();
        loop ()
    | Some td, _ ->
        process_decisions_at td;
        loop ()
    | None, Some _ ->
        Sched.step sched;
        harvest ();
        loop ()
  in
  loop ();
  let makespan = Sched.run_to_idle sched in
  let totals =
    Array.to_list
      (Array.mapi
         (fun t s ->
           let m = Sched.stream_metrics s in
           {
             tt_tenant = t;
             tt_grids = m.grids_launched;
             tt_host_launches = m.host_launches;
             tt_device_launches = m.device_launches;
             tt_launch_cycles = m.breakdown.launch_cycles;
             tt_max_pending = m.max_pending_launches;
           })
         streams)
  in
  {
    rn_jobs =
      List.sort
        (fun a b -> compare (a.jr_tenant, a.jr_seq) (b.jr_tenant, b.jr_seq))
        !results;
    rn_totals = totals;
    rn_makespan = makespan;
    rn_mem_hash = memory_hash mem;
  }

(** Launch-queue wait attribution for one tenant: the launch cycles its
    metrics accumulated minus the unavoidable per-launch latencies — what
    remains is pure queueing behind the shared grid-management unit
    (other tenants' launches included). *)
let queue_wait (cfg : Config.t) (tt : tenant_totals) =
  let w =
    tt.tt_launch_cycles
    -. (float_of_int tt.tt_host_launches
       *. float_of_int cfg.host_launch_latency)
    -. (float_of_int tt.tt_device_launches
       *. float_of_int
            (cfg.launch_service_interval + cfg.device_launch_latency))
  in
  (* each term is (issue + latency) -. issue, so the attribution carries
     sub-cycle float noise; a wait below one thousandth of a cycle is
     zero, not a negative residue *)
  if Float.abs w < 1e-3 then 0.0 else w
