(** Simulated device global memory.

    Memory is a table of buffers. Every element access is keyed by a buffer
    id and an element offset ({!load_at}, {!store_at}, {!atomic_rmw_at});
    the VM reads both straight from a pointer register's lanes, and the
    {!Value.ptr} entry points are one-line wrappers for host code and
    tests. Out-of-bounds and use-after-free accesses raise
    {!Value.Runtime_error} with a precise description — the simulator
    doubles as a memory checker for transformed code.

    {b Representation.} A buffer's storage follows whoever knows its
    element kind:

    - Host drivers do ({!alloc}): buffers of [typed_threshold] elements and
      up whose initializer is an [Int] or [Float] use an unboxed
      [int array] / [float array] — at paper scale (millions of graph
      edges) the boxed representation costs 3 words and a cache miss per
      element. Smaller buffers store boxed {!Value.t}s.
    - Nobody does ({!alloc_boxed}): the aggregation pass's capture buffers
      (argument, configuration and counter arrays allocated at launch)
      hold pointers, floats and ints alike, so they are always boxed,
      whatever their size.
    - Device [malloc] ({!malloc}) cannot know it either, but its elements
      start as [Int 0], and the one benchmark that mallocs (BT) stores
      only floats into them. Its storage is a [float array] with a
      per-element written flag: an element reads as [Int 0] until a float
      is stored into it. Boxed, each stored float would cost 5 words,
      and BT's buffers would set a sweep-small process's peak heap, which
      then moves with where the major GC's cycles fall.

    A store of a differently-typed value into a typed buffer converts
    that buffer to boxed storage in place, then stores, so loads return
    exactly the values stored, as under the boxed representation. The
    conversion happens at most once per buffer, and no benchmark workload
    triggers it: the buffers that receive mixed kinds are the boxed ones
    above.

    {b Write generations.} Each buffer counts the writes made to it:
    every store, atomic and bulk write, and its [free]. The VM compares
    two readings of a buffer's count to know that nothing wrote the
    buffer in between, which is when a block's later threads may reuse
    what its first thread loaded ({!Vm.run_block}).

    A memory belongs to the one domain driving its {!Device.t}, which also
    executes every block, so no access takes a lock. *)

type storage =
  | Boxed of Value.t array
  | Ints of int array
  | Floats of float array
  | Floats_or_zeros of float array * Bytes.t

type buffer = {
  mutable storage : storage;  (** Typed storage may become [Boxed]. *)
  mutable live : bool;
  mutable gen : int;  (** Writes so far, [free] included. *)
}

type t = {
  mutable table : buffer option array;
  mutable count : int;
  mutable allocated_elems : int;  (** Total elements ever allocated. *)
}

let create () = { table = Array.make 64 None; count = 0; allocated_elems = 0 }

let grow t =
  if t.count >= Array.length t.table then begin
    let bigger = Array.make (2 * Array.length t.table) None in
    Array.blit t.table 0 bigger 0 t.count;
    t.table <- bigger
  end

(* Unboxed storage pays off only when the buffer is large enough for the
   allocation + copy asymmetry to matter; below this everything stays
   boxed, byte-for-byte as before. *)
let typed_threshold = 1024

let make_storage ~typed (init : Value.t) n =
  if (not typed) || n < typed_threshold then Boxed (Array.make n init)
  else
    match init with
    | Value.Int v -> Ints (Array.make n v)
    | Value.Float v -> Floats (Array.make n v)
    | _ -> Boxed (Array.make n init)

let add_buffer t n make : Value.ptr =
  if n < 0 then Value.error "negative allocation size %d" n;
  grow t;
  let id = t.count in
  t.table.(id) <- Some { storage = make n; live = true; gen = 0 };
  t.count <- t.count + 1;
  t.allocated_elems <- t.allocated_elems + n;
  { buf = id; off = 0 }

(** [alloc t n ~init] allocates a buffer of [n] elements initialized to
    [init], returning a pointer to its first element. Large [Int]/[Float]
    initializers get typed storage. *)
let alloc t n ~init = add_buffer t n (make_storage ~typed:true init)

(** [alloc_boxed t n ~init] is {!alloc} with boxed storage at any size, for
    buffers whose element kind the allocator cannot know. *)
let alloc_boxed t n ~init = add_buffer t n (make_storage ~typed:false init)

(** [malloc t n] allocates [n] elements that read as [Int 0], stored as
    floats with a written flag each. *)
let malloc t n =
  add_buffer t n (fun n ->
      Floats_or_zeros (Array.make n 0.0, Bytes.make n '\000'))

let buffer_exn t id =
  if id < 0 || id >= t.count then Value.error "invalid buffer id %d" id;
  match t.table.(id) with
  | Some b -> b
  | None -> Value.error "invalid buffer id %d" id

let storage_len b =
  match b.storage with
  | Boxed a -> Array.length a
  | Ints a -> Array.length a
  | Floats a | Floats_or_zeros (a, _) -> Array.length a

(** [free t p] releases the buffer [p] points into. Subsequent accesses
    raise. Freeing a non-base pointer or a dead buffer raises. *)
let free t (p : Value.ptr) =
  let b = buffer_exn t p.buf in
  if not b.live then Value.error "double free of buffer %d" p.buf;
  if p.off <> 0 then Value.error "free of interior pointer (offset %d)" p.off;
  b.live <- false;
  b.gen <- b.gen + 1

(* The one implementation of the access checks, for every load, store and
   atomic: buffer id, then liveness, then bounds. *)
let check t buf off =
  let b = buffer_exn t buf in
  if not b.live then Value.error "use after free (buffer %d)" buf;
  if off < 0 || off >= storage_len b then
    Value.error "out-of-bounds access: offset %d in buffer %d of size %d" off
      buf (storage_len b);
  b

(* Value-level copy of a buffer's storage; also the boxed form a typed
   buffer takes on its first mismatched store. *)
let snapshot b =
  match b.storage with
  | Boxed a -> Array.copy a
  | Ints a -> Array.map (fun n -> Value.Int n) a
  | Floats a -> Array.map (fun f -> Value.Float f) a
  | Floats_or_zeros (a, w) ->
      Array.mapi
        (fun i f ->
          if Bytes.unsafe_get w i = '\000' then Value.Int 0 else Value.Float f)
        a

(** [storage_at t buf off] checks an access to element [off] of buffer
    [buf] and returns the buffer's storage, for a reader that takes
    element [off] without boxing it. *)
let storage_at t buf off = (check t buf off).storage

(** [load_at t buf off] reads element [off] of buffer [buf]. *)
let load_at t buf off : Value.t =
  match storage_at t buf off with
  | Boxed a -> Array.unsafe_get a off
  | Ints a -> Value.Int (Array.unsafe_get a off)
  | Floats a -> Value.Float (Array.unsafe_get a off)
  | Floats_or_zeros (a, w) ->
      if Bytes.unsafe_get w off = '\000' then Value.Int 0
      else Value.Float (Array.unsafe_get a off)

(* [b]'s element [off] becomes [v], which typed storage cannot hold: a
   typed buffer converts to boxed storage first. *)
let store_boxed b off v =
  match b.storage with
  | Boxed a -> Array.unsafe_set a off v
  | Ints _ | Floats _ | Floats_or_zeros _ ->
      let a = snapshot b in
      a.(off) <- v;
      b.storage <- Boxed a

(* The checked, counted buffer a store to element [off] of [buf] writes. *)
let written t buf off =
  let b = check t buf off in
  b.gen <- b.gen + 1;
  b

(** [store_at t buf off v] writes [v] to element [off] of buffer [buf]. A
    value of the other kind converts a typed buffer to boxed storage. *)
let store_at t buf off (v : Value.t) =
  let b = written t buf off in
  match (b.storage, v) with
  | Ints a, Value.Int n -> Array.unsafe_set a off n
  | Floats a, Value.Float f -> Array.unsafe_set a off f
  | Floats_or_zeros (a, w), Value.Float f ->
      Array.unsafe_set a off f;
      Bytes.unsafe_set w off '\001'
  | _ -> store_boxed b off v

(** [store_int_at t buf off n] is [store_at t buf off (Value.Int n)]; it
    boxes [n] only into boxed storage. *)
let store_int_at t buf off n =
  let b = written t buf off in
  match b.storage with
  | Ints a -> Array.unsafe_set a off n
  | _ -> store_boxed b off (Value.Int n)

(** [store_float_at t buf off src i] is
    [store_at t buf off (Value.Float src.(i))]. The float is read here, so
    a caller in another module passes it without boxing it. *)
let store_float_at t buf off (src : float array) i =
  let b = written t buf off in
  match b.storage with
  | Floats a -> Array.unsafe_set a off (Array.unsafe_get src i)
  | Floats_or_zeros (a, w) ->
      Array.unsafe_set a off (Array.unsafe_get src i);
      Bytes.unsafe_set w off '\001'
  | _ -> store_boxed b off (Value.Float (Array.unsafe_get src i))

(** [atomic_rmw_at t buf off f x y] replaces element [off] of buffer [buf]
    with [f x y old] and returns [old]. [f]'s operands travel separately,
    so a caller passing a closed [f] builds no closure per atomic. *)
let atomic_rmw_at t buf off f x y : Value.t =
  let old = load_at t buf off in
  store_at t buf off (f x y old);
  old

(** [generation t buf] is the number of writes made to buffer [buf] so
    far, its [free] included; -1 if [buf] names no buffer. *)
let generation t buf =
  if buf < 0 || buf >= t.count then -1
  else match t.table.(buf) with Some b -> b.gen | None -> -1

let load t (p : Value.ptr) = load_at t p.buf p.off
let store t (p : Value.ptr) v = store_at t p.buf p.off v

let atomic_rmw t (p : Value.ptr) f =
  atomic_rmw_at t p.buf p.off (fun f () old -> f old) f ()

let allocated_elems t = t.allocated_elems

(** Number of buffers ever allocated (live or freed). Buffer ids are dense
    in [0 .. buffer_count - 1], in allocation order. *)
let buffer_count t = t.count

(** [dump t ~first] — value-level copies of the first [first] buffers ever
    allocated, in allocation order (freed buffers keep their last
    contents). The differential-testing oracle snapshots the driver's
    buffers this way and requires them to be bit-identical across
    transformed program variants, regardless of what the compiler-inserted
    code allocated afterwards. *)
let dump t ~first : Value.t array list =
  if first < 0 || first > t.count then
    Value.error "Memory.dump: %d buffers requested, %d allocated" first
      t.count;
  List.init first (fun id ->
      match t.table.(id) with
      | Some b -> snapshot b
      | None -> Value.error "Memory.dump: missing buffer %d" id)

let size t (p : Value.ptr) =
  let b = buffer_exn t p.buf in
  storage_len b

(** Bulk host-side accessors (no cost accounting; drivers use these). The
    typed fast paths blit directly into unboxed storage — at paper scale
    these move megabytes per experiment cell. *)

let write_array t (p : Value.ptr) (vs : Value.t array) =
  Array.iteri (fun i v -> store t { p with off = p.off + i } v) vs

let read_array t (p : Value.ptr) n : Value.t array =
  Array.init n (fun i -> load t { p with off = p.off + i })

let write_ints t (p : Value.ptr) (vs : int array) =
  let n = Array.length vs in
  if n = 0 then ()
  else
    let b = check t p.buf p.off in
    match b.storage with
    | Ints a when p.off + n <= Array.length a ->
        Array.blit vs 0 a p.off n;
        b.gen <- b.gen + 1
    | _ -> write_array t p (Array.map (fun x -> Value.Int x) vs)

let read_ints t (p : Value.ptr) n =
  if n = 0 then [||]
  else
    let b = check t p.buf p.off in
    match b.storage with
    | Ints a when p.off + n <= Array.length a -> Array.sub a p.off n
    | _ -> Array.map Value.as_int (read_array t p n)

let write_floats t (p : Value.ptr) (vs : float array) =
  let n = Array.length vs in
  if n = 0 then ()
  else
    let b = check t p.buf p.off in
    match b.storage with
    | Floats a when p.off + n <= Array.length a ->
        Array.blit vs 0 a p.off n;
        b.gen <- b.gen + 1
    | _ -> write_array t p (Array.map (fun f -> Value.Float f) vs)

let read_floats t (p : Value.ptr) n =
  if n = 0 then [||]
  else
    let b = check t p.buf p.off in
    match b.storage with
    | Floats a when p.off + n <= Array.length a -> Array.sub a p.off n
    | _ -> Array.map Value.as_float (read_array t p n)
