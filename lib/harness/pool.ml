(** Work-stealing job pool on OCaml 5 domains. See the interface for the
    determinism contract; the scheduling structure is:

    - [jobs] participants: the submitting caller (participant 0) plus
      [jobs - 1] persistent worker domains;
    - one index queue per participant, seeded round-robin by {!run};
    - a participant pops its own queue first and otherwise steals the
      newer half of the largest other queue;
    - a single [mutex] guards every queue plus the batch bookkeeping (the
      jobs themselves — simulator runs — dwarf the queue operations, so
      finer-grained locking would buy nothing), with [work] waking idle
      workers when a batch arrives and [done_] waking the caller when the
      last job of a batch finishes. *)

type t = {
  jobs : int;
  mutex : Mutex.t;
  work : Condition.t;  (** New batch available, or [stop]. *)
  done_ : Condition.t;  (** [pending] reached 0. *)
  mutable batch : (unit -> unit) array;
      (** Current jobs, type-erased: each writes its own result slot and
          traps its own exceptions, so running one never raises. *)
  queues : int Queue.t array;  (** Per-participant batch indices. *)
  mutable pending : int;  (** Jobs of the current batch not yet finished. *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)
let jobs t = t.jobs

(* Next job for participant [wid]: own queue first, else steal half of the
   largest other queue. Caller must hold [t.mutex]. *)
let take t wid =
  let own = t.queues.(wid) in
  if Queue.is_empty own then begin
    let victim = ref (-1) and best = ref 0 in
    Array.iteri
      (fun i q ->
        let l = Queue.length q in
        if i <> wid && l > !best then begin
          victim := i;
          best := l
        end)
      t.queues;
    if !victim >= 0 then begin
      let vq = t.queues.(!victim) in
      for _ = 1 to (!best + 1) / 2 do
        Queue.push (Queue.pop vq) own
      done
    end
  end;
  if Queue.is_empty own then None else Some (Queue.pop own)

(* Run batch jobs as participant [wid] until none are left (neither owned
   nor stealable). Caller must hold [t.mutex]; the lock is dropped around
   each job. *)
let drain t wid =
  let continue_ = ref true in
  while !continue_ do
    match take t wid with
    | None -> continue_ := false
    | Some i ->
        let job = t.batch.(i) in
        Mutex.unlock t.mutex;
        job ();
        Mutex.lock t.mutex;
        t.pending <- t.pending - 1;
        if t.pending = 0 then Condition.broadcast t.done_
  done

let worker t wid =
  Mutex.lock t.mutex;
  while not t.stop do
    drain t wid;
    if not t.stop then Condition.wait t.work t.mutex
  done;
  Mutex.unlock t.mutex

let create ?jobs () =
  let jobs =
    max 1 (match jobs with None -> default_jobs () | Some j -> j)
  in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      done_ = Condition.create ();
      batch = [||];
      queues = Array.init jobs (fun _ -> Queue.create ());
      pending = 0;
      stop = false;
      domains = [];
    }
  in
  t.domains <-
    List.init (jobs - 1) (fun k -> Domain.spawn (fun () -> worker t (k + 1)));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let run t f n =
  if t.stop then invalid_arg "Pool.run: pool is shut down";
  if n = 0 then [||]
  else if t.jobs = 1 then begin
    (* Sequential reference path: in index order, in the caller. *)
    let results = Array.make n None in
    for i = 0 to n - 1 do
      results.(i) <- Some (f i)
    done;
    Array.map Option.get results
  end
  else begin
    let results = Array.make n None in
    let job i () =
      match f i with
      | v -> results.(i) <- Some (Ok v)
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          results.(i) <- Some (Error (e, bt))
    in
    Mutex.lock t.mutex;
    t.batch <- Array.init n job;
    for i = 0 to n - 1 do
      Queue.push i t.queues.(i mod t.jobs)
    done;
    t.pending <- n;
    Condition.broadcast t.work;
    (* participate as worker 0, then wait out the stragglers *)
    drain t 0;
    while t.pending > 0 do
      Condition.wait t.done_ t.mutex
    done;
    t.batch <- [||];
    Mutex.unlock t.mutex;
    (* deterministic exception selection: lowest failing index wins,
       independent of the order the jobs actually completed in *)
    for i = 0 to n - 1 do
      match results.(i) with
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | Some (Ok _) | None -> ()
    done;
    Array.map
      (function Some (Ok v) -> v | Some (Error _) | None -> assert false)
      results
  end

let map_list t f xs =
  let a = Array.of_list xs in
  Array.to_list (run t (fun i -> f a.(i)) (Array.length a))
