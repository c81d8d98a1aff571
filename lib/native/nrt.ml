(* Nrt — the native runtime transpiled MiniCU programs link against.

   This module is compiled twice: once into the [native] library (so the
   test suite can drive it directly), and once copied verbatim into the
   scratch project of every emitted program (see Build). It must therefore
   depend on the OCaml standard library ONLY — no Fmt, no Logs, nothing
   from this repository.

   Execution model (mirrors GpuSim semantics exactly, scheduling aside):
   - values, memory, pointer arithmetic, coercions, and every operator
     replicate lib/gpusim {Value,Memory,Runtime,Vm} bit for bit;
   - threads of one block are cooperative fibers advanced in thread-id
     order, suspending at [__syncthreads] via an effect — the same
     barrier-epoch algorithm as Gpusim.Vm, so intra-block interleaving
     (including paired-atomic scan idioms) is identical to the simulator;
   - blocks run truly in parallel on a small domain pool; global-memory
     loads/stores are deliberately unsynchronized (racy programs may
     diverge run to run — that is the point of the backend), atomics take
     a global lock;
   - device-side child launches are collected per block and dispatched in
     issue order when the block completes, matching the simulator's
     deferred launch processing; [sync] waits for the whole launch tree.

   Not mirrored (documented in DESIGN.md §11): cost metrics, launch
   counters, the warp axis (warp collectives and [__syncwarp] are
   rejected at emission), [__threadfence] and host followups (ditto). *)

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

type ptr = { buf : int; off : int }

type v =
  | Unit
  | Int of int
  | Float of float
  | Bool of bool
  | Dim3 of (int * int * int)
  | Ptr of ptr

exception Runtime_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt
let fail s = raise (Runtime_error s)

let to_string = function
  | Unit -> "()"
  | Int n -> string_of_int n
  | Float f -> string_of_float f
  | Bool b -> string_of_bool b
  | Dim3 (x, y, z) -> Printf.sprintf "dim3(%d,%d,%d)" x y z
  | Ptr p -> Printf.sprintf "ptr(%d+%d)" p.buf p.off

let as_int = function
  | Int n -> n
  | Bool b -> if b then 1 else 0
  | Float f -> int_of_float f
  | v -> error "expected an int, got %s" (to_string v)

let as_float = function
  | Float f -> f
  | Int n -> float_of_int n
  | Bool b -> if b then 1.0 else 0.0
  | v -> error "expected a float, got %s" (to_string v)

let as_bool = function
  | Bool b -> b
  | Int n -> n <> 0
  | Float f -> f <> 0.0
  | v -> error "expected a bool, got %s" (to_string v)

let as_ptr = function
  | Ptr p -> p
  | v -> error "expected a pointer, got %s" (to_string v)

let as_dim3 = function
  | Dim3 (x, y, z) -> (x, y, z)
  | Int n -> (n, 1, 1)
  | Bool b -> ((if b then 1 else 0), 1, 1)
  | v -> error "expected a dim3 or int, got %s" (to_string v)

let dim3_total (x, y, z) = x * y * z
let is_float = function Float _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Operators (Gpusim.Runtime.eval_binop, verbatim semantics)           *)
(* ------------------------------------------------------------------ *)

let add a b =
  match (a, b) with
  | Ptr p, v -> Ptr { p with off = p.off + as_int v }
  | v, Ptr p -> Ptr { p with off = p.off + as_int v }
  | _ ->
      if is_float a || is_float b then Float (as_float a +. as_float b)
      else Int (as_int a + as_int b)

let sub a b =
  match (a, b) with
  | Ptr p, Ptr q ->
      if p.buf <> q.buf then error "subtracting pointers into different buffers";
      Int (p.off - q.off)
  | Ptr p, v -> Ptr { p with off = p.off - as_int v }
  | _ ->
      if is_float a || is_float b then Float (as_float a -. as_float b)
      else Int (as_int a - as_int b)

let mul a b =
  if is_float a || is_float b then Float (as_float a *. as_float b)
  else Int (as_int a * as_int b)

let div a b =
  if is_float a || is_float b then Float (as_float a /. as_float b)
  else
    let d = as_int b in
    if d = 0 then error "integer division by zero";
    Int (as_int a / d)

let mod_ a b =
  let d = as_int b in
  if d = 0 then error "integer modulo by zero";
  Int (as_int a mod d)

let cmp a b =
  if is_float a || is_float b then compare (as_float a) (as_float b)
  else compare (as_int a) (as_int b)

let lt a b = Bool (cmp a b < 0)
let le a b = Bool (cmp a b <= 0)
let gt a b = Bool (cmp a b > 0)
let ge a b = Bool (cmp a b >= 0)

let eq_val a b =
  match (a, b) with
  | Ptr p, Ptr q -> p = q
  | _ -> if is_float a || is_float b then as_float a = as_float b
         else as_int a = as_int b

let eq a b = Bool (eq_val a b)
let ne a b = Bool (not (eq_val a b))
let band a b = Int (as_int a land as_int b)
let bor a b = Int (as_int a lor as_int b)
let bxor a b = Int (as_int a lxor as_int b)
let shl a b = Int (as_int a lsl as_int b)
let shr a b = Int (as_int a asr as_int b)
let neg = function Float f -> Float (-.f) | v -> Int (-as_int v)
let not_ v = Bool (not (as_bool v))

let dim3_member (x, y, z) = function
  | "x" -> x
  | "y" -> y
  | "z" -> z
  | f -> error "dim3 has no member %S" f

let member v f =
  match v with
  | Dim3 d -> Int (dim3_member d f)
  | Int n -> Int (dim3_member (n, 1, 1) f)
  | v -> error "member access %S on non-dim3 %s" f (to_string v)

(* Member assignment on a local (Gpusim.Vm's split.dim3 / set.dim3). *)
let set_member cur f n =
  let x', y', z' =
    match cur with
    | Dim3 d -> d
    | Int n -> (n, 1, 1)
    | Unit -> (1, 1, 1)
    | v -> error "member assignment on non-dim3 %s" (to_string v)
  in
  let n = as_int n in
  match f with
  | "x" -> Dim3 (n, y', z')
  | "y" -> Dim3 (x', n, z')
  | "z" -> Dim3 (x', y', n)
  | _ -> error "dim3 has no member %S" f

(* Numeric builtins (the min/max/abs/float1/pow arms of Gpusim.Vm). *)
let min_ a b =
  if is_float a || is_float b then Float (Float.min (as_float a) (as_float b))
  else Int (min (as_int a) (as_int b))

let max_ a b =
  if is_float a || is_float b then Float (Float.max (as_float a) (as_float b))
  else Int (max (as_int a) (as_int b))

let abs_ = function Float x -> Float (Float.abs x) | v -> Int (abs (as_int v))
let fabs v = Float (Float.abs (as_float v))
let ceil_ v = Float (Float.ceil (as_float v))
let floor_ v = Float (Float.floor (as_float v))
let sqrt_ v = Float (Float.sqrt (as_float v))
let exp_ v = Float (Float.exp (as_float v))
let log_ v = Float (Float.log (as_float v))
let pow_ a b = Float (Float.pow (as_float a) (as_float b))

(* ------------------------------------------------------------------ *)
(* State: memory, kernel registry, domain pool                         *)
(* ------------------------------------------------------------------ *)

type buffer = { data : v array; mutable live : bool }

type launch_req = {
  lr_kernel : string;
  lr_grid : int * int * int;
  lr_block : int * int * int;
  lr_args : v list;
}

type state = {
  (* Memory: a growing table of buffers, dense ids in allocation order.
     The table array is re-published atomically on growth so unlocked
     readers on other domains never see a torn resize; element accesses
     themselves are deliberately plain (racy programs may race). *)
  table : buffer option array Atomic.t;
  count : int Atomic.t;
  mem_mutex : Mutex.t;
  (* One global lock serializes all atomic read-modify-writes. *)
  atomic_mutex : Mutex.t;
  kernels : (string, kernel) Hashtbl.t;
      (* Registered once before the first launch; read-only afterwards. *)
  (* Work queue of per-block tasks over a small domain pool. *)
  lock : Mutex.t;
  work : Condition.t;
  idle : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable outstanding : int;  (* queued + running block tasks *)
  mutable closing : bool;
  mutable failure : exn option;  (* first block failure; raised by [sync] *)
  mutable workers : unit Domain.t list;
}

and kernel = { k_name : string; k_arity : int; k_fn : tctx -> v array -> unit }

and blk = {
  st : state;
  bidx : int * int * int;
  bdim : int * int * int;
  gdim : int * int * int;
  shared : (int, ptr) Hashtbl.t;
      (* Shared-memory buffers keyed by per-function declaration id,
         allocated by the first thread to reach the declaration. *)
  mutable launches : launch_req list;  (* reversed issue order *)
}

and tctx = { tidx : int * int * int; blk : blk }

let max_threads_per_block = 1024

(* --- memory ------------------------------------------------------- *)

let alloc st n ~init : ptr =
  if n < 0 then error "negative allocation size %d" n;
  Mutex.lock st.mem_mutex;
  let id = Atomic.get st.count in
  let tbl = Atomic.get st.table in
  let tbl =
    if id < Array.length tbl then tbl
    else begin
      let bigger = Array.make (2 * Array.length tbl) None in
      Array.blit tbl 0 bigger 0 id;
      Atomic.set st.table bigger;
      bigger
    end
  in
  tbl.(id) <- Some { data = Array.make n init; live = true };
  Atomic.set st.count (id + 1);
  Mutex.unlock st.mem_mutex;
  { buf = id; off = 0 }

let buffer_exn st id =
  if id < 0 || id >= Atomic.get st.count then error "invalid buffer id %d" id;
  match (Atomic.get st.table).(id) with
  | Some b -> b
  | None -> error "invalid buffer id %d" id

let free st (p : ptr) =
  let b = buffer_exn st p.buf in
  if not b.live then error "double free of buffer %d" p.buf;
  if p.off <> 0 then error "free of interior pointer (offset %d)" p.off;
  b.live <- false

let check_access st (p : ptr) =
  let b = buffer_exn st p.buf in
  if not b.live then error "use after free (buffer %d)" p.buf;
  if p.off < 0 || p.off >= Array.length b.data then
    error "out-of-bounds access: offset %d in buffer %d of size %d" p.off p.buf
      (Array.length b.data);
  b

let mem_load st (p : ptr) = (check_access st p).data.(p.off)
let mem_store st (p : ptr) x = (check_access st p).data.(p.off) <- x

(* --- memory ops of emitted device code ---------------------------- *)

let load (t : tctx) vp vi =
  let p = as_ptr vp in
  let i = as_int vi in
  mem_load t.blk.st { p with off = p.off + i }

let store (t : tctx) vp vi x =
  let p = as_ptr vp in
  let i = as_int vi in
  mem_store t.blk.st { p with off = p.off + i } x

let addr vp vi =
  let p = as_ptr vp in
  Ptr { p with off = p.off + as_int vi }

(* Member assignment through a pointer (Gpusim.Vm's mload.dim3 /
   mstore.dim3): the new value is evaluated AFTER the dim3 load, hence the
   thunk. *)
let store_member (t : tctx) vp vi f (x : unit -> v) =
  let p = as_ptr vp in
  let i = as_int vi in
  let loc = { p with off = p.off + i } in
  let x', y', z' =
    match mem_load t.blk.st loc with
    | Dim3 d -> d
    | Unit | Int 0 -> (1, 1, 1)
    | v -> error "member assignment on non-dim3 %s" (to_string v)
  in
  let n = as_int (x ()) in
  let d =
    match f with
    | "x" -> (n, y', z')
    | "y" -> (x', n, z')
    | "z" -> (x', y', n)
    | _ -> error "dim3 has no member %S" f
  in
  mem_store t.blk.st loc (Dim3 d)

let with_atomic_lock st f =
  Mutex.lock st.atomic_mutex;
  match f () with
  | r ->
      Mutex.unlock st.atomic_mutex;
      r
  | exception e ->
      Mutex.unlock st.atomic_mutex;
      raise e

let atomic_rmw (t : tctx) vp combine x =
  let p = as_ptr vp in
  with_atomic_lock t.blk.st (fun () ->
      let old = mem_load t.blk.st p in
      mem_store t.blk.st p (combine old x);
      old)

let atomic_add t vp x = atomic_rmw t vp add x
let atomic_sub t vp x = atomic_rmw t vp sub x
let atomic_min t vp x = atomic_rmw t vp min_ x
let atomic_max t vp x = atomic_rmw t vp max_ x
let atomic_exch t vp x = atomic_rmw t vp (fun _ v -> v) x

let atomic_cas (t : tctx) vp vcmp x =
  let p = as_ptr vp in
  with_atomic_lock t.blk.st (fun () ->
      let old = mem_load t.blk.st p in
      if as_int old = as_int vcmp then mem_store t.blk.st p x;
      old)

let malloc (t : tctx) vn = Ptr (alloc t.blk.st (as_int vn) ~init:(Int 0))

(* --- reserved variables ------------------------------------------- *)

let thread_idx (t : tctx) = Dim3 t.tidx
let block_idx (t : tctx) = Dim3 t.blk.bidx
let block_dim (t : tctx) = Dim3 t.blk.bdim
let grid_dim (t : tctx) = Dim3 t.blk.gdim

(* --- shared memory ------------------------------------------------ *)

(* The size expression is only evaluated by the allocating (first) thread,
   as in the simulator — hence the thunk. *)
let shared_alloc (t : tctx) id (size : unit -> v) (init : v) : v =
  match Hashtbl.find_opt t.blk.shared id with
  | Some p -> Ptr p
  | None ->
      let n = as_int (size ()) in
      let p = alloc t.blk.st n ~init in
      Hashtbl.add t.blk.shared id p;
      Ptr p

(* ------------------------------------------------------------------ *)
(* Control flow of the interpreted language                            *)
(* ------------------------------------------------------------------ *)

exception Ret of v
exception Brk
exception Cont

(* ------------------------------------------------------------------ *)
(* Block execution: cooperative fibers + barrier epochs                *)
(* ------------------------------------------------------------------ *)

type _ Effect.t += E_sync : unit Effect.t

let sync_threads (_ : tctx) = Effect.perform E_sync

type susp = S_done | S_sync of (unit, susp) Effect.Deep.continuation

let run_thread (f : unit -> unit) : susp =
  Effect.Deep.match_with f ()
    {
      retc = (fun () -> S_done);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | E_sync ->
              Some (fun (k : (a, susp) Effect.Deep.continuation) -> S_sync k)
          | _ -> None);
    }

(* The simulator's launch-shape rule (Gpusim.Runtime.check_launch_shape),
   verbatim messages. *)
let check_launch_shape kernel (gx, gy, gz) (bx, by, bz) =
  if gx < 1 || gy < 1 || gz < 1 then
    error "launch of %S with empty grid (%d,%d,%d)" kernel gx gy gz;
  if bx < 1 || by < 1 || bz < 1 then
    error "launch of %S with empty block (%d,%d,%d)" kernel bx by bz;
  if bx * by * bz > max_threads_per_block then
    error "launch of %S with %d threads per block (max %d)" kernel
      (bx * by * bz) max_threads_per_block

(* In-kernel launch: validate now (as the simulator does at issue time),
   dispatch when the block completes. *)
let launch (t : tctx) kernel vgrid vblock (args : v list) =
  let grid = as_dim3 vgrid in
  let block = as_dim3 vblock in
  check_launch_shape kernel grid block;
  t.blk.launches <-
    { lr_kernel = kernel; lr_grid = grid; lr_block = block; lr_args = args }
    :: t.blk.launches

let push_tasks st tasks =
  Mutex.lock st.lock;
  List.iter (fun task -> Queue.push task st.queue) tasks;
  st.outstanding <- st.outstanding + List.length tasks;
  Condition.broadcast st.work;
  Mutex.unlock st.lock

let rec run_grid st ~kernel ~grid ~block ~args =
  let k =
    match Hashtbl.find_opt st.kernels kernel with
    | Some k -> k
    | None -> error "no such function %S" kernel
  in
  if List.length args <> k.k_arity then
    error "launch of %S: expected %d arguments, got %d" kernel k.k_arity
      (List.length args);
  let args = Array.of_list args in
  let gx, gy, gz = grid in
  let tasks = ref [] in
  for z = gz - 1 downto 0 do
    for y = gy - 1 downto 0 do
      for x = gx - 1 downto 0 do
        let bidx = (x, y, z) in
        tasks :=
          (fun () -> exec_block st ~k ~gdim:grid ~bdim:block ~bidx args)
          :: !tasks
      done
    done
  done;
  push_tasks st !tasks

and exec_block st ~k ~gdim ~bdim ~bidx (args : v array) =
  let blk = { st; bidx; bdim; gdim; shared = Hashtbl.create 8; launches = [] } in
  let bx, by, _ = bdim in
  let total = dim3_total bdim in
  let tctx_of i =
    { tidx = (i mod bx, i / bx mod by, i / (bx * by)); blk }
  in
  (* Start every thread in tid order, each running to completion or its
     first barrier — the same interleaving as the simulator's in-order
     warp advancement. *)
  let states = Array.make (max total 1) S_done in
  for i = 0 to total - 1 do
    states.(i) <- run_thread (fun () -> k.k_fn (tctx_of i) args)
  done;
  let waiting () =
    Array.exists (function S_sync _ -> true | S_done -> false) states
  in
  let epochs = ref 0 in
  while waiting () do
    (* Barrier epoch: everyone still live is parked at the barrier
       (threads that returned count as arrived); release all in tid
       order. *)
    incr epochs;
    if !epochs > 1_000_000 then
      error "barrier livelock in %S: 1000000 epochs" k.k_name;
    Array.iteri
      (fun i s ->
        match s with
        | S_sync kont -> states.(i) <- Effect.Deep.continue kont ()
        | S_done -> ())
      states
  done;
  Hashtbl.iter (fun _ p -> free st p) blk.shared;
  List.iter
    (fun lr ->
      run_grid st ~kernel:lr.lr_kernel ~grid:lr.lr_grid ~block:lr.lr_block
        ~args:lr.lr_args)
    (List.rev blk.launches)

(* ------------------------------------------------------------------ *)
(* Domain pool                                                         *)
(* ------------------------------------------------------------------ *)

let rec worker st =
  Mutex.lock st.lock;
  let rec await () =
    if not (Queue.is_empty st.queue) then Some (Queue.pop st.queue)
    else if st.closing then None
    else begin
      Condition.wait st.work st.lock;
      await ()
    end
  in
  match await () with
  | None -> Mutex.unlock st.lock
  | Some task ->
      let skip = st.failure <> None in
      Mutex.unlock st.lock;
      let fault =
        if skip then None
        else match task () with () -> None | exception e -> Some e
      in
      Mutex.lock st.lock;
      (match fault with
      | Some e when st.failure = None -> st.failure <- Some e
      | _ -> ());
      st.outstanding <- st.outstanding - 1;
      if st.outstanding = 0 then Condition.broadcast st.idle;
      Mutex.unlock st.lock;
      worker st

let default_domains () = max 2 (min 8 (Domain.recommended_domain_count ()))

let create ?domains () : state =
  let n = match domains with Some n -> max 1 n | None -> default_domains () in
  let st =
    {
      table = Atomic.make (Array.make 64 None);
      count = Atomic.make 0;
      mem_mutex = Mutex.create ();
      atomic_mutex = Mutex.create ();
      kernels = Hashtbl.create 16;
      lock = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      queue = Queue.create ();
      outstanding = 0;
      closing = false;
      failure = None;
      workers = [];
    }
  in
  st.workers <- List.init n (fun _ -> Domain.spawn (fun () -> worker st));
  st

let register st (k : kernel) = Hashtbl.replace st.kernels k.k_name k

let sync st =
  Mutex.lock st.lock;
  while st.outstanding > 0 do
    Condition.wait st.idle st.lock
  done;
  let f = st.failure in
  st.failure <- None;
  Mutex.unlock st.lock;
  match f with Some e -> raise e | None -> ()

let shutdown st =
  Mutex.lock st.lock;
  st.closing <- true;
  Condition.broadcast st.work;
  Mutex.unlock st.lock;
  List.iter Domain.join st.workers;
  st.workers <- []

(* ------------------------------------------------------------------ *)
(* Host driver API (mirrors Gpusim.Device)                             *)
(* ------------------------------------------------------------------ *)

let host_launch st ~kernel ~grid ~block ~args =
  check_launch_shape kernel grid block;
  run_grid st ~kernel ~grid ~block ~args

let alloc_ints st (vs : int array) : v =
  let p = alloc st (Array.length vs) ~init:(Int 0) in
  Array.iteri (fun i n -> mem_store st { p with off = i } (Int n)) vs;
  Ptr p

let alloc_floats st (vs : float array) : v =
  let p = alloc st (Array.length vs) ~init:(Float 0.0) in
  Array.iteri (fun i f -> mem_store st { p with off = i } (Float f)) vs;
  Ptr p

let alloc_int_zeros st n : v = Ptr (alloc st n ~init:(Int 0))
let alloc_float_zeros st n : v = Ptr (alloc st n ~init:(Float 0.0))

let dump st ~first : v array list =
  let count = Atomic.get st.count in
  if first < 0 || first > count then
    error "Memory.dump: %d buffers requested, %d allocated" first count;
  let tbl = Atomic.get st.table in
  List.init first (fun id ->
      match tbl.(id) with
      | Some b -> Array.copy b.data
      | None -> error "Memory.dump: missing buffer %d" id)

(* ------------------------------------------------------------------ *)
(* Canonical dump rendering                                            *)
(* ------------------------------------------------------------------ *)

(* One cell per value, bit-exact: floats render as the hex of their IEEE
   bits, so text equality is bit equality. Native.Hostspec.render_dump
   renders simulator dumps with the same grammar; the two must never
   diverge. *)
let render_cell = function
  | Unit -> "u"
  | Int n -> "i" ^ string_of_int n
  | Float f -> Printf.sprintf "f%Lx" (Int64.bits_of_float f)
  | Bool true -> "b1"
  | Bool false -> "b0"
  | Dim3 (x, y, z) -> Printf.sprintf "d%d,%d,%d" x y z
  | Ptr p -> Printf.sprintf "p%d+%d" p.buf p.off

let render_dump (bufs : v array list) : string =
  let b = Buffer.create 1024 in
  List.iteri
    (fun i cells ->
      Buffer.add_string b (Printf.sprintf "buf %d:" i);
      Array.iter
        (fun c ->
          Buffer.add_char b ' ';
          Buffer.add_string b (render_cell c))
        cells;
      Buffer.add_char b '\n')
    bufs;
  Buffer.contents b
