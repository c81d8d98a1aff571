(** Sharded, byte-budgeted LRU. See the interface for the contract.

    Each shard is a hashtable over an intrusive doubly-linked list ordered
    by recency (front = most recent). All shard state is guarded by the
    shard's mutex; cross-shard aggregates ({!stats}) take the shard locks
    one at a time, so they are a consistent-per-shard snapshot, not a
    global atomic one — fine for monitoring, which is their only use. *)

type 'v node = {
  key : string;
  value : 'v;
  size : int;
  mutable prev : 'v node option;  (** Toward the front (more recent). *)
  mutable next : 'v node option;  (** Toward the back (less recent). *)
}

type 'v shard = {
  lock : Mutex.t;
  tbl : (string, 'v node) Hashtbl.t;
  mutable front : 'v node option;
  mutable back : 'v node option;
  mutable bytes : int;
  budget : int;
  mutable insertions : int;
  mutable evictions : int;
}

type 'v t = { shards : 'v shard array }

let create ?(shards = 8) ~bytes () =
  let shards = max 1 shards in
  let slice = max 1 (bytes / shards) in
  {
    shards =
      Array.init shards (fun _ ->
          {
            lock = Mutex.create ();
            tbl = Hashtbl.create 64;
            front = None;
            back = None;
            bytes = 0;
            budget = slice;
            insertions = 0;
            evictions = 0;
          });
  }

(* Each shard's table picks its bucket from the low bits of
   [Hashtbl.hash key]; choosing the shard from those bits too would leave
   all but one in [shards] of every table's buckets empty, so the shard
   comes from a hash with another seed. *)
let shard_of t key =
  t.shards.(Hashtbl.seeded_hash 1 key mod Array.length t.shards)

(* ---- intrusive list plumbing (shard lock held) ---------------------- *)

let unlink sh n =
  (match n.prev with Some p -> p.next <- n.next | None -> sh.front <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> sh.back <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front sh n =
  let some_n = Some n in
  n.prev <- None;
  n.next <- sh.front;
  (match sh.front with Some f -> f.prev <- some_n | None -> sh.back <- some_n);
  sh.front <- some_n

let drop sh n =
  unlink sh n;
  Hashtbl.remove sh.tbl n.key;
  sh.bytes <- sh.bytes - n.size

let evict_to_fit sh =
  while sh.bytes > sh.budget && sh.back <> None do
    match sh.back with
    | Some n ->
        drop sh n;
        sh.evictions <- sh.evictions + 1
    | None -> ()
  done

(* ---- public API ------------------------------------------------------ *)

(* Nothing between lock and unlock can raise. *)
let find t key =
  let sh = shard_of t key in
  Mutex.lock sh.lock;
  let v =
    match Hashtbl.find_opt sh.tbl key with
    | None -> None
    | Some n ->
        unlink sh n;
        push_front sh n;
        Some n.value
  in
  Mutex.unlock sh.lock;
  v

let add t ~key ~size v =
  let sh = shard_of t key in
  let size = max 1 size in
  Mutex.protect sh.lock (fun () ->
      (match Hashtbl.find_opt sh.tbl key with
      | Some old -> drop sh old
      | None -> ());
      if size <= sh.budget then begin
        let n = { key; value = v; size; prev = None; next = None } in
        Hashtbl.replace sh.tbl key n;
        push_front sh n;
        sh.bytes <- sh.bytes + size;
        sh.insertions <- sh.insertions + 1;
        evict_to_fit sh
      end)

type stats = {
  entries : int;
  bytes : int;
  budget : int;
  insertions : int;
  evictions : int;
}

let stats t =
  Array.fold_left
    (fun acc sh ->
      Mutex.protect sh.lock (fun () ->
          {
            entries = acc.entries + Hashtbl.length sh.tbl;
            bytes = acc.bytes + sh.bytes;
            budget = acc.budget + sh.budget;
            insertions = acc.insertions + sh.insertions;
            evictions = acc.evictions + sh.evictions;
          }))
    { entries = 0; bytes = 0; budget = 0; insertions = 0; evictions = 0 }
    t.shards
