(** Simulated device global memory: a table of buffers addressed by buffer
    id and element offset. Out-of-bounds and use-after-free accesses raise
    {!Value.Runtime_error}, so the simulator doubles as a memory checker for
    transformed code.

    Storage follows whoever knows the element kind. Host drivers' large
    [Int]/[Float]-initialized buffers ({!alloc}) are stored unboxed
    ([int array] / [float array]); the first store of another kind converts
    such a buffer to boxed storage in place. Buffers whose element kind the
    allocator cannot know — aggregation capture buffers ({!alloc_boxed}) —
    and all small buffers are boxed. Device [malloc] ({!malloc}) stores
    floats unboxed and converts on the first store of another kind.
    Observable behavior is identical either way.

    Every buffer counts the writes made to it ({!generation}): the VM
    reads the count to know that a buffer is unchanged between two
    points of a block.

    Domain-safety: a memory belongs to the single domain driving the owning
    {!Device.t}, which also executes every block; nothing here takes a
    lock. Distinct [t] values are fully independent. *)

type t

(** A buffer's elements: boxed, or unboxed ints or floats. *)
type storage =
  | Boxed of Value.t array
  | Ints of int array
  | Floats of float array
  | Floats_or_zeros of float array * Bytes.t
      (** Device [malloc]'s: element [i] is [Int 0] while byte [i] is
          ['\000'], and [Float a.(i)] once a float has been stored there. *)

val create : unit -> t

(** [alloc t n ~init] allocates [n] elements initialized to [init]; large
    [Int]/[Float] initializers get typed storage.
    @raise Value.Runtime_error if [n < 0]. *)
val alloc : t -> int -> init:Value.t -> Value.ptr

(** [alloc_boxed t n ~init] is {!alloc} with boxed storage at any size, for
    buffers that may hold values of any kind. *)
val alloc_boxed : t -> int -> init:Value.t -> Value.ptr

(** [malloc t n] is [alloc_boxed t n ~init:(Int 0)] with
    [Floats_or_zeros] storage: stored floats stay unboxed, and the first
    store of another kind converts the buffer to boxed storage.
    @raise Value.Runtime_error if [n < 0]. *)
val malloc : t -> int -> Value.ptr

(** [free t p] releases [p]'s buffer. [p] must be the base pointer of a
    live buffer. *)
val free : t -> Value.ptr -> unit

(** {1 Element access}

    Keyed by buffer id and element offset. Every access runs the same
    checks in the same order — buffer id ([invalid buffer id N]), liveness
    ([use after free (buffer N)]), bounds ([out-of-bounds access: offset O
    in buffer N of size S]). *)

val load_at : t -> int -> int -> Value.t
val store_at : t -> int -> int -> Value.t -> unit

(** The VM's typed path: no [Value.t] is built for an int or float that
    typed storage holds.

    [storage_at t buf off] runs {!load_at}'s checks and returns the
    buffer's storage, whose element [off] the caller reads itself. It may
    not write it: stores count writes ({!generation}). *)
val storage_at : t -> int -> int -> storage

(** [store_int_at t buf off n] is [store_at t buf off (Value.Int n)], and
    [store_float_at t buf off src i] is
    [store_at t buf off (Value.Float src.(i))]: the float is passed by
    position, so that the call does not box it. *)
val store_int_at : t -> int -> int -> int -> unit
val store_float_at : t -> int -> int -> float array -> int -> unit

(** [atomic_rmw_at t buf off f x y] replaces the element with [f x y old]
    and returns [old]: a load and a store of the same element. *)
val atomic_rmw_at :
  t -> int -> int -> ('a -> 'b -> Value.t -> Value.t) -> 'a -> 'b -> Value.t

(** [generation t buf] counts the writes to buffer [buf] so far: every
    store, atomic and bulk write ({!write_array}, {!write_ints},
    {!write_floats}), and its {!free}. Equal readings mean nothing wrote
    the buffer in between. -1 if [buf] names no buffer; never raises. *)
val generation : t -> int -> int

(** Pointer forms of the three accessors, for host code and tests. *)

val load : t -> Value.ptr -> Value.t
val store : t -> Value.ptr -> Value.t -> unit
val atomic_rmw : t -> Value.ptr -> (Value.t -> Value.t) -> Value.t

(** Element count of the buffer [p] points into. *)
val size : t -> Value.ptr -> int

(** Total elements ever allocated (high-water accounting for stats). *)
val allocated_elems : t -> int

(** Number of buffers ever allocated (live or freed); buffer ids are dense
    in [0 .. buffer_count - 1], in allocation order. *)
val buffer_count : t -> int

(** [dump t ~first] — value-level copies of the first [first] buffers, in
    allocation order. The differential-testing oracle ([lib/difftest])
    snapshots driver-allocated buffers this way and compares them
    bit-for-bit across transformed program variants.
    @raise Value.Runtime_error if [first] exceeds {!buffer_count}. *)
val dump : t -> first:int -> Value.t array list

(** {1 Bulk host-side accessors} (no cost accounting; drivers use these) *)

val write_array : t -> Value.ptr -> Value.t array -> unit
val read_array : t -> Value.ptr -> int -> Value.t array
val write_ints : t -> Value.ptr -> int array -> unit
val read_ints : t -> Value.ptr -> int -> int array
val write_floats : t -> Value.ptr -> float array -> unit
val read_floats : t -> Value.ptr -> int -> float array
