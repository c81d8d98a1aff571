(** Register VM: the simulator's execution engine for lowered MiniCU
    ({!Bytecode}).

    Executes lowered MiniCU over unboxed per-thread register banks: a tag
    byte per register (unit/int/float/bool/dim3/ptr) with payload lanes in
    parallel [int] and [float] arrays. A pointer is its buffer id and
    element offset in the [ia]/[ib] lanes, and every memory access passes
    those two ints straight to {!Memory}: no pointer record is built. An
    int or float moves between typed storage and a register's lanes
    unboxed, both ways, and a dim3 register's component is read from its
    lanes. A {!Value.t} is boxed where one crosses the engine's edges — a
    value stored into boxed storage (boxed storage hands back the value it
    holds), an atomic's operands and old value, kernel arguments, launch
    requests, warp collectives — and on coercion-error paths.

    The interpreter dispatches on the packed word stream
    ([Bytecode.bp_ops]): an opcode word followed by its operand words, so
    decoding an instruction is a handful of adjacent [int array] loads with
    no per-instruction heap block to chase. Jump targets (and the program
    counter) are word offsets; float/string/value/location operands come
    from the program's side pools. A charge the packer carried into a
    compare-branch, jump or return is charged first, then the branch
    runs: the costs are read only at a launch, at a block-uniform
    prefix's end and when the block ends, none of which it was carried
    past.

    A [call] pushes a frame only for the calls the lowering keeps:
    [_serial] entries, functions that call others and functions that
    declare [__shared__] arrays. Calls of other device functions are
    lowered inline ({!Bytecode}), so the per-thread and per-block bodies
    the passes extract run in their caller's frame.

    Threads are explicit state machines (program counter, frame base, call
    stack): a thread runs until it finishes or parks at a barrier or warp
    collective, and resuming it runs it immediately to its next
    suspension. A block advances warp by warp:

    - within a warp, threads run in lane order until every live lane has
      either reached the same warp collective (which is then evaluated and
      all lanes resumed) or reached the block barrier / finished;
    - when every warp has reached the barrier, all waiting threads are
      released and the next barrier epoch begins.

    Threads that return before a barrier count as arrived at every later
    barrier — the CUDA idiom of early-exit guard threads; truly divergent
    barriers (some lanes at a warp collective while others sit at
    [__syncthreads]) are errors. Cost accounting: each thread accumulates
    per-tag cycles; a warp's cost per tag is the maximum over its lanes
    (lockstep execution makes the straggler the critical path), and a
    block's cost is the sum over warps, scaled by
    {!Config.sm_warp_parallelism}. The golden suite
    ([test/test_bytecode.ml]) pins all of this bit for bit.

    A kernel's block-uniform prefix ({!Bytecode.uniform}) runs once per
    block. Its end is marked in the word stream ([uniform.end]), where a
    thread parks. The first thread to park there records the prefix's
    registers, its per-tag costs and their total, and the write
    generation ({!Memory.generation}) of every buffer the prefix may load
    from. A later thread of the block whose recorded buffers are
    unwritten since copies that record and starts after the marker,
    which leaves it exactly as running the prefix would have; otherwise
    it runs the prefix and records afresh. Under [Config.check] (race
    reports need every thread's loads) and in one-thread blocks, threads
    run their prefixes themselves.

    Per-block metadata lives in a {!scratch} arena owned by the scheduler:
    thread records, register banks, call stacks and each block shape's
    [threadIdx] tuples are preallocated and reused across blocks, and the
    dispatch loop ([run]) is a top-level function, so neither starting a
    thread nor a loop iteration allocates (the [@ir] gate checks that a
    launch allocates no more at twice the trip count, and at most 1,024
    words per 256 threads); what a launch does allocate is per block and
    per boxed value crossing the edges above. *)

open Bytecode

type status =
  | T_not_started
  | T_running
  | T_at_prefix_end  (** Parked at the [uniform.end] marker. *)
  | T_at_sync
  | T_at_warp of Runtime.warp_req
  | T_done

(* Register tag codes (one byte per register). *)
let tag_unit = 0
let tag_int = 1
let tag_float = 2
let tag_bool = 3
let tag_dim3 = 4
let tag_ptr = 5

type thread = {
  (* Register bank: [tags] holds one tag code per register; [ia]/[ib]/[ic]
     hold int payloads (int, bool 0/1, dim3 x/y/z, ptr buf/off) and [fa]
     holds float payloads. Frames are stacked: a callee's registers start
     at [base + nregs] of its caller. *)
  mutable tags : Bytes.t;
  mutable ia : int array;
  mutable ib : int array;
  mutable ic : int array;
  mutable fa : float array;
  mutable base : int;
  mutable nregs : int;
  mutable pc : int;  (** Word offset into [Bytecode.bp_ops]. *)
  (* Call stack (parallel arrays, fixed-capacity style with doubling). *)
  mutable st_ret : int array;
  mutable st_base : int array;
  mutable st_dst : int array;  (** Absolute result register in the caller. *)
  mutable st_nregs : int array;
  mutable depth : int;
  (* Cost accounting: per-tag cycles and their running total. [tot] is a
     one-element array rather than a mutable float field: mixed records
     box their float fields, and charging is on the hottest interpreter
     path. *)
  costs : float array;
  tot : float array;
  mutable default_idx : int;
  mutable tidx : int * int * int;
  mutable blk : Runtime.bctx;
  mutable status : status;
  mutable wdst : int;  (** Absolute register awaiting a warp result. *)
}

(* ------------------------------------------------------------------ *)
(* Register access                                                     *)
(* ------------------------------------------------------------------ *)

let grow_regs t n =
  let cap = Array.length t.ia in
  if n > cap then begin
    let c = ref (max 64 cap) in
    while !c < n do
      c := !c * 2
    done;
    let c = !c in
    let ia = Array.make c 0 in
    Array.blit t.ia 0 ia 0 cap;
    t.ia <- ia;
    let ib = Array.make c 0 in
    Array.blit t.ib 0 ib 0 cap;
    t.ib <- ib;
    let ic = Array.make c 0 in
    Array.blit t.ic 0 ic 0 cap;
    t.ic <- ic;
    let fa = Array.make c 0.0 in
    Array.blit t.fa 0 fa 0 cap;
    t.fa <- fa;
    let tags = Bytes.make c '\000' in
    Bytes.blit t.tags 0 tags 0 cap;
    t.tags <- tags
  end

let grow_stack t =
  let cap = Array.length t.st_ret in
  if t.depth = cap then begin
    let c = 2 * cap in
    let g a =
      let n = Array.make c 0 in
      Array.blit a 0 n 0 cap;
      n
    in
    t.st_ret <- g t.st_ret;
    t.st_base <- g t.st_base;
    t.st_dst <- g t.st_dst;
    t.st_nregs <- g t.st_nregs
  end

(* Register-bank accesses use unsafe array ops: every operand is a
   frame-relative index below the function's [bf_nregs] high-water mark,
   and [grow_regs] guarantees capacity for [base + nregs] before entry.
   Word-stream reads are unsafe too: [pc] only ever lands on offsets the
   packer produced, and every operand word lies within its instruction. *)

let[@inline] wd (ops : int array) i = Array.unsafe_get ops i
let[@inline] tag_of t r = Char.code (Bytes.unsafe_get t.tags r)
let[@inline] set_tag t r tg = Bytes.unsafe_set t.tags r (Char.unsafe_chr tg)
let[@inline] geti t r = Array.unsafe_get t.ia r
let[@inline] getf t r = Array.unsafe_get t.fa r
let[@inline] getib t r = Array.unsafe_get t.ib r
let[@inline] getic t r = Array.unsafe_get t.ic r

let[@inline] set_unit t r = set_tag t r tag_unit

let[@inline] set_int t r n =
  set_tag t r tag_int;
  Array.unsafe_set t.ia r n

let[@inline] set_float t r f =
  set_tag t r tag_float;
  Array.unsafe_set t.fa r f

let[@inline] set_bool t r b =
  set_tag t r tag_bool;
  Array.unsafe_set t.ia r (if b then 1 else 0)

let[@inline] set_dim3_v t r x y z =
  set_tag t r tag_dim3;
  Array.unsafe_set t.ia r x;
  Array.unsafe_set t.ib r y;
  Array.unsafe_set t.ic r z

let[@inline] set_ptr_at t r buf off =
  set_tag t r tag_ptr;
  Array.unsafe_set t.ia r buf;
  Array.unsafe_set t.ib r off

let[@inline] set_ptr t r (p : Value.ptr) = set_ptr_at t r p.buf p.off

let box t r : Value.t =
  match tag_of t r with
  | 0 -> Value.Unit
  | 1 -> Value.Int (geti t r)
  | 2 -> Value.Float (getf t r)
  | 3 -> Value.Bool (geti t r <> 0)
  | 4 -> Value.Dim3 (geti t r, Array.unsafe_get t.ib r, Array.unsafe_get t.ic r)
  | _ -> Value.Ptr { buf = geti t r; off = Array.unsafe_get t.ib r }

let set_value t r (v : Value.t) =
  match v with
  | Value.Unit -> set_unit t r
  | Value.Int n -> set_int t r n
  | Value.Float f -> set_float t r f
  | Value.Bool b -> set_bool t r b
  | Value.Dim3 (x, y, z) -> set_dim3_v t r x y z
  | Value.Ptr p -> set_ptr t r p

let[@inline] copy_reg t dst src =
  set_tag t dst (tag_of t src);
  Array.unsafe_set t.ia dst (Array.unsafe_get t.ia src);
  Array.unsafe_set t.ib dst (Array.unsafe_get t.ib src);
  Array.unsafe_set t.ic dst (Array.unsafe_get t.ic src);
  Array.unsafe_set t.fa dst (Array.unsafe_get t.fa src)

(* Coercions: identical semantics (and error messages) to {!Value}. *)

let get_int t r =
  match tag_of t r with
  | 1 | 3 -> geti t r
  | 2 -> int_of_float (getf t r)
  | _ -> Value.error "expected an int, got %a" Value.pp (box t r)

let get_float t r =
  match tag_of t r with
  | 2 -> getf t r
  | 1 | 3 -> float_of_int (geti t r)
  | _ -> Value.error "expected a float, got %a" Value.pp (box t r)

let get_bool t r =
  match tag_of t r with
  | 3 | 1 -> geti t r <> 0
  | 2 -> getf t r <> 0.0
  | _ -> Value.error "expected a bool, got %a" Value.pp (box t r)

(* A pointer operand stays in its lanes: [need_ptr] only checks the tag,
   then the caller reads the buffer from [ia] and the offset from [ib]. *)
let ptr_error t r = Value.error "expected a pointer, got %a" Value.pp (box t r)
let[@inline] need_ptr t r = if tag_of t r <> tag_ptr then ptr_error t r

let get_dim3 t r =
  match tag_of t r with
  | 4 -> (geti t r, Array.unsafe_get t.ib r, Array.unsafe_get t.ic r)
  | 1 | 3 -> (geti t r, 1, 1)
  | _ -> Value.error "expected a dim3 or int, got %a" Value.pp (box t r)

(* ------------------------------------------------------------------ *)
(* Cost charging and sanitizer hooks                                   *)
(* ------------------------------------------------------------------ *)

(* Inlined so the float argument stays unboxed: an out-of-line call boxes
   it, i.e. allocates on every [charge] of every loop iteration. *)
let[@inline] charge_tag (t : thread) idx (c : float) =
  let idx = if idx = Metrics.tag_default then t.default_idx else idx in
  Array.unsafe_set t.costs idx (Array.unsafe_get t.costs idx +. c);
  Array.unsafe_set t.tot 0 (Array.unsafe_get t.tot 0 +. c)

let check_access (t : thread) ~kind ~loc buf off =
  match t.blk.Runtime.racecheck with
  | None -> ()
  | Some rc ->
      let x, y, z = t.tidx in
      let bx, by, _ = t.blk.Runtime.bdim in
      let tid = x + (y * bx) + (z * bx * by) in
      Racecheck.record rc ~tid ~kind ~loc { Value.buf; off }

let access_failed (t : thread) ~loc msg =
  t.blk.Runtime.metrics.Metrics.oob_detected <-
    t.blk.Runtime.metrics.Metrics.oob_detected + 1;
  raise (Value.Runtime_error (Fmt.str "%a: %s" Minicu.Loc.pp loc msg))

let[@inline] memory (t : thread) = t.blk.Runtime.mem

let checked_load (t : thread) ~loc buf off =
  try Memory.load_at (memory t) buf off
  with Value.Runtime_error msg -> access_failed t ~loc msg

let checked_store (t : thread) ~loc buf off v =
  try Memory.store_at (memory t) buf off v
  with Value.Runtime_error msg -> access_failed t ~loc msg

(* The typed memory path: register [d] <- element [off] of [storage], and
   element [off] of buffer [buf] <- register [r]. An int or float of
   typed storage moves between its array and the register's lanes with
   no [Value.t] built. *)
let[@inline] load_reg (t : thread) d off = function
  | Memory.Ints a -> set_int t d (Array.unsafe_get a off)
  | Memory.Floats a -> set_float t d (Array.unsafe_get a off)
  | Memory.Boxed a -> set_value t d (Array.unsafe_get a off)
  | Memory.Floats_or_zeros (a, w) ->
      if Bytes.unsafe_get w off = '\000' then set_int t d 0
      else set_float t d (Array.unsafe_get a off)

let load_into (t : thread) d buf off =
  load_reg t d off (Memory.storage_at (memory t) buf off)

let store_reg (t : thread) buf off r =
  let mem = memory t in
  match tag_of t r with
  | 1 -> Memory.store_int_at mem buf off (geti t r)
  | 2 -> Memory.store_float_at mem buf off t.fa r
  | _ -> Memory.store_at mem buf off (box t r)

let checked_storage (t : thread) ~loc buf off =
  try Memory.storage_at (memory t) buf off
  with Value.Runtime_error msg -> access_failed t ~loc msg

(* Component [k] (0/1/2 for x/y/z) of a dim3, from its three parts. *)
let[@inline] component k x y z = if k = 0 then x else if k = 1 then y else z

let component_name = [| "x"; "y"; "z" |]

(* Atomic combine; coercion order (and so failure order) is part of the
   pinned semantics. Closed, with its operands first, so that
   [Memory.atomic_rmw_at] takes it without a closure per atomic. *)
let atomic_combine (aop : atomic) (v : Value.t) (old : Value.t) : Value.t =
  match aop with
  | A_add -> Runtime.eval_binop Minicu.Ast.Add old v
  | A_sub -> Runtime.eval_binop Minicu.Ast.Sub old v
  | A_min ->
      if Value.is_float old || Value.is_float v then
        Value.Float (Float.min (Value.as_float old) (Value.as_float v))
      else Value.Int (min (Value.as_int old) (Value.as_int v))
  | A_max ->
      if Value.is_float old || Value.is_float v then
        Value.Float (Float.max (Value.as_float old) (Value.as_float v))
      else Value.Int (max (Value.as_int old) (Value.as_int v))
  | A_exch -> v

let cas_combine (cmpv : Value.t) (v : Value.t) (old : Value.t) : Value.t =
  if Value.as_int old = Value.as_int cmpv then v else old

(* [mload.dim3]'s view of a stored value: a dim3, or the all-ones default
   of a never-written slot. *)
let stored_dim3 = function
  | Value.Dim3 d -> d
  | Value.Unit | Value.Int 0 -> (1, 1, 1)
  | v -> Value.error "member assignment on non-dim3 %a" Value.pp v

(* Decode tables — inverses of the [Bytecode] [*_code] encoders. *)

let binop_tbl =
  [|
    Minicu.Ast.Add;
    Minicu.Ast.Sub;
    Minicu.Ast.Mul;
    Minicu.Ast.Div;
    Minicu.Ast.Mod;
    Minicu.Ast.Lt;
    Minicu.Ast.Le;
    Minicu.Ast.Gt;
    Minicu.Ast.Ge;
    Minicu.Ast.Eq;
    Minicu.Ast.Ne;
    Minicu.Ast.LAnd;
    Minicu.Ast.LOr;
    Minicu.Ast.BAnd;
    Minicu.Ast.BOr;
    Minicu.Ast.BXor;
    Minicu.Ast.Shl;
    Minicu.Ast.Shr;
  |]

let atomic_tbl = [| A_add; A_sub; A_min; A_max; A_exch |]

(* Fused comparison evaluation — [as_bool (eval_binop op a b)] without
   materializing the Bool. Lowering only emits comparison operators into
   the [I_cmp_*] family, so non-comparisons are unreachable. *)

let cmp2 (t : thread) op ra rb : bool =
  let ta = tag_of t ra and tb = tag_of t rb in
  if ta = tag_int && tb = tag_int then
    let a = geti t ra and bi = geti t rb in
    match op with
    | Minicu.Ast.Lt -> a < bi
    | Minicu.Ast.Le -> a <= bi
    | Minicu.Ast.Gt -> a > bi
    | Minicu.Ast.Ge -> a >= bi
    | Minicu.Ast.Eq -> a = bi
    | Minicu.Ast.Ne -> a <> bi
    | _ -> assert false
  else if
    (ta = tag_float || tb = tag_float)
    && (ta = tag_int || ta = tag_float)
    && (tb = tag_int || tb = tag_float)
  then
    let a = if ta = tag_float then getf t ra else float_of_int (geti t ra)
    and bf = if tb = tag_float then getf t rb else float_of_int (geti t rb) in
    match op with
    | Minicu.Ast.Lt -> Float.compare a bf < 0
    | Minicu.Ast.Le -> Float.compare a bf <= 0
    | Minicu.Ast.Gt -> Float.compare a bf > 0
    | Minicu.Ast.Ge -> Float.compare a bf >= 0
    | Minicu.Ast.Eq -> a = bf
    | Minicu.Ast.Ne -> a <> bf
    | _ -> assert false
  else Value.as_bool (Runtime.eval_binop op (box t ra) (box t rb))

let cmp1 (t : thread) op ra n : bool =
  match tag_of t ra with
  | 1 -> (
      let a = geti t ra in
      match op with
      | Minicu.Ast.Lt -> a < n
      | Minicu.Ast.Le -> a <= n
      | Minicu.Ast.Gt -> a > n
      | Minicu.Ast.Ge -> a >= n
      | Minicu.Ast.Eq -> a = n
      | Minicu.Ast.Ne -> a <> n
      | _ -> assert false)
  | 2 -> (
      let a = getf t ra in
      let bf = float_of_int n in
      match op with
      | Minicu.Ast.Lt -> Float.compare a bf < 0
      | Minicu.Ast.Le -> Float.compare a bf <= 0
      | Minicu.Ast.Gt -> Float.compare a bf > 0
      | Minicu.Ast.Ge -> Float.compare a bf >= 0
      | Minicu.Ast.Eq -> a = bf
      | Minicu.Ast.Ne -> a <> bf
      | _ -> assert false)
  | _ -> Value.as_bool (Runtime.eval_binop op (box t ra) (Value.Int n))

let[@inline] pool_float (p : Bytecode.prog) i = Array.unsafe_get p.bp_fpool i

(* Return from the current frame with register [r]'s value (unit if
   [r < 0]): the caller's pc, or -1 once the thread is done. *)
let return (t : thread) r =
  if t.depth = 0 then begin
    t.status <- T_done;
    -1
  end
  else begin
    let dep = t.depth - 1 in
    t.depth <- dep;
    let dst = Array.unsafe_get t.st_dst dep in
    if r < 0 then set_unit t dst else copy_reg t dst (t.base + r);
    t.base <- Array.unsafe_get t.st_base dep;
    t.nregs <- Array.unsafe_get t.st_nregs dep;
    Array.unsafe_get t.st_ret dep
  end

(* ------------------------------------------------------------------ *)
(* Interpreter loop                                                    *)
(* ------------------------------------------------------------------ *)

(* Run [t] until it finishes ([T_done]) or parks at a barrier or warp
   collective. All register operands are frame-relative; [t.base]
   translates them to absolute bank indices.

   The dispatch match mirrors the opcode table in [Bytecode.pack] — the
   arm numbers ARE the opcodes; keep the two in sync. The program counter
   lives in the tail-recursive [run]'s parameter, not in [t.pc]:
   fall-through instructions continue at [pc + width] without touching
   the record, and [t.pc] is written only where the thread parks (barrier
   and warp-collective arms), which is where a resume needs it. *)
let rec run (p : Bytecode.prog) (ops : int array) (t : thread) pc =
  let b = t.base in
  match Array.unsafe_get ops pc with
  | 0 (* const.unit *) ->
      set_unit t (b + wd ops (pc + 1));
      run p ops t (pc + 2)
  | 1 (* const.int *) ->
      set_int t (b + wd ops (pc + 1)) (wd ops (pc + 2));
      run p ops t (pc + 3)
  | 2 (* const.float *) ->
      set_float t (b + wd ops (pc + 1)) (pool_float p (wd ops (pc + 2)));
      run p ops t (pc + 3)
  | 3 (* const.bool *) ->
      set_bool t (b + wd ops (pc + 1)) (wd ops (pc + 2) <> 0);
      run p ops t (pc + 3)
  | 4 (* const.dim3 *) ->
      set_dim3_v t
        (b + wd ops (pc + 1))
        (wd ops (pc + 2))
        (wd ops (pc + 3))
        (wd ops (pc + 4));
      run p ops t (pc + 5)
  | 5 (* mov *) ->
      copy_reg t (b + wd ops (pc + 1)) (b + wd ops (pc + 2));
      run p ops t (pc + 3)
  | 6 (* special *) ->
      let x, y, z =
        match wd ops (pc + 2) with
        | 0 -> t.tidx
        | 1 -> t.blk.Runtime.bidx
        | 2 -> t.blk.Runtime.bdim
        | _ -> t.blk.Runtime.gdim
      in
      set_dim3_v t (b + wd ops (pc + 1)) x y z;
      run p ops t (pc + 3)
  | 7 (* special.comp *) ->
      let x, y, z =
        match wd ops (pc + 2) with
        | 0 -> t.tidx
        | 1 -> t.blk.Runtime.bidx
        | 2 -> t.blk.Runtime.bdim
        | _ -> t.blk.Runtime.gdim
      in
      set_int t (b + wd ops (pc + 1)) (component (wd ops (pc + 3)) x y z);
      run p ops t (pc + 4)
  | 8 (* member *) ->
      (let r = b + wd ops (pc + 2) in
       let k = wd ops (pc + 3) in
       let d = b + wd ops (pc + 1) in
       match tag_of t r with
       | 4 -> set_int t d (component k (geti t r) (getib t r) (getic t r))
       | 1 -> set_int t d (component k (geti t r) 1 1)
       | _ ->
           Value.error "member access %S on non-dim3 %a"
             (Array.unsafe_get component_name k)
             Value.pp (box t r));
      run p ops t (pc + 4)
  | 9 (* neg *) ->
      (let r = b + wd ops (pc + 2) in
       let d = b + wd ops (pc + 1) in
       if tag_of t r = tag_float then set_float t d (-.getf t r)
       else set_int t d (-get_int t r));
      run p ops t (pc + 3)
  | 10 (* not *) ->
      set_bool t (b + wd ops (pc + 1)) (not (get_bool t (b + wd ops (pc + 2))));
      run p ops t (pc + 3)
  | 11 (* binop *) -> (
      let op = Array.unsafe_get binop_tbl (wd ops (pc + 1)) in
      let rd = b + wd ops (pc + 2)
      and ra = b + wd ops (pc + 3)
      and rb = b + wd ops (pc + 4) in
      let ta = tag_of t ra and tb = tag_of t rb in
      let fallback () =
        set_value t rd (Runtime.eval_binop op (box t ra) (box t rb))
      in
      if ta = tag_int && tb = tag_int then
        let a = geti t ra and bi = geti t rb in
        match op with
        | Minicu.Ast.Add -> set_int t rd (a + bi)
        | Minicu.Ast.Sub -> set_int t rd (a - bi)
        | Minicu.Ast.Mul -> set_int t rd (a * bi)
        | Minicu.Ast.Div ->
            if bi = 0 then Value.error "integer division by zero";
            set_int t rd (a / bi)
        | Minicu.Ast.Mod ->
            if bi = 0 then Value.error "integer modulo by zero";
            set_int t rd (a mod bi)
        | Minicu.Ast.Lt -> set_bool t rd (a < bi)
        | Minicu.Ast.Le -> set_bool t rd (a <= bi)
        | Minicu.Ast.Gt -> set_bool t rd (a > bi)
        | Minicu.Ast.Ge -> set_bool t rd (a >= bi)
        | Minicu.Ast.Eq -> set_bool t rd (a = bi)
        | Minicu.Ast.Ne -> set_bool t rd (a <> bi)
        | Minicu.Ast.BAnd -> set_int t rd (a land bi)
        | Minicu.Ast.BOr -> set_int t rd (a lor bi)
        | Minicu.Ast.BXor -> set_int t rd (a lxor bi)
        | Minicu.Ast.Shl -> set_int t rd (a lsl bi)
        | Minicu.Ast.Shr -> set_int t rd (a asr bi)
        | Minicu.Ast.LAnd | Minicu.Ast.LOr -> fallback ()
      else if
        (ta = tag_float || tb = tag_float)
        && (ta = tag_int || ta = tag_float)
        && (tb = tag_int || tb = tag_float)
      then
        let a = if ta = tag_float then getf t ra else float_of_int (geti t ra)
        and bf = if tb = tag_float then getf t rb else float_of_int (geti t rb)
        in
        match op with
        | Minicu.Ast.Add -> set_float t rd (a +. bf)
        | Minicu.Ast.Sub -> set_float t rd (a -. bf)
        | Minicu.Ast.Mul -> set_float t rd (a *. bf)
        | Minicu.Ast.Div -> set_float t rd (a /. bf)
        | Minicu.Ast.Lt -> set_bool t rd (Float.compare a bf < 0)
        | Minicu.Ast.Le -> set_bool t rd (Float.compare a bf <= 0)
        | Minicu.Ast.Gt -> set_bool t rd (Float.compare a bf > 0)
        | Minicu.Ast.Ge -> set_bool t rd (Float.compare a bf >= 0)
        | Minicu.Ast.Eq -> set_bool t rd (a = bf)
        | Minicu.Ast.Ne -> set_bool t rd (a <> bf)
        | _ -> fallback ()
      else fallback ());
      run p ops t (pc + 5)
  | 12 (* binop.int *) -> (
      (* Same semantics as opcode 11 with an Int right operand; the
         literal never needs materializing. *)
      let op = Array.unsafe_get binop_tbl (wd ops (pc + 1)) in
      let rd = b + wd ops (pc + 2)
      and ra = b + wd ops (pc + 3)
      and n = wd ops (pc + 4) in
      let fallback () =
        set_value t rd (Runtime.eval_binop op (box t ra) (Value.Int n))
      in
      match tag_of t ra with
      | 1 -> (
          let a = geti t ra in
          match op with
          | Minicu.Ast.Add -> set_int t rd (a + n)
          | Minicu.Ast.Sub -> set_int t rd (a - n)
          | Minicu.Ast.Mul -> set_int t rd (a * n)
          | Minicu.Ast.Div ->
              if n = 0 then Value.error "integer division by zero";
              set_int t rd (a / n)
          | Minicu.Ast.Mod ->
              if n = 0 then Value.error "integer modulo by zero";
              set_int t rd (a mod n)
          | Minicu.Ast.Lt -> set_bool t rd (a < n)
          | Minicu.Ast.Le -> set_bool t rd (a <= n)
          | Minicu.Ast.Gt -> set_bool t rd (a > n)
          | Minicu.Ast.Ge -> set_bool t rd (a >= n)
          | Minicu.Ast.Eq -> set_bool t rd (a = n)
          | Minicu.Ast.Ne -> set_bool t rd (a <> n)
          | Minicu.Ast.BAnd -> set_int t rd (a land n)
          | Minicu.Ast.BOr -> set_int t rd (a lor n)
          | Minicu.Ast.BXor -> set_int t rd (a lxor n)
          | Minicu.Ast.Shl -> set_int t rd (a lsl n)
          | Minicu.Ast.Shr -> set_int t rd (a asr n)
          | Minicu.Ast.LAnd | Minicu.Ast.LOr -> fallback ())
      | 2 -> (
          let a = getf t ra in
          let bf = float_of_int n in
          match op with
          | Minicu.Ast.Add -> set_float t rd (a +. bf)
          | Minicu.Ast.Sub -> set_float t rd (a -. bf)
          | Minicu.Ast.Mul -> set_float t rd (a *. bf)
          | Minicu.Ast.Div -> set_float t rd (a /. bf)
          | Minicu.Ast.Lt -> set_bool t rd (Float.compare a bf < 0)
          | Minicu.Ast.Le -> set_bool t rd (Float.compare a bf <= 0)
          | Minicu.Ast.Gt -> set_bool t rd (Float.compare a bf > 0)
          | Minicu.Ast.Ge -> set_bool t rd (Float.compare a bf >= 0)
          | Minicu.Ast.Eq -> set_bool t rd (a = bf)
          | Minicu.Ast.Ne -> set_bool t rd (a <> bf)
          | _ -> fallback ())
      | _ -> fallback ());
      run p ops t (pc + 5)
  | 13 (* binop.float *) -> (
      let op = Array.unsafe_get binop_tbl (wd ops (pc + 1)) in
      let rd = b + wd ops (pc + 2)
      and ra = b + wd ops (pc + 3)
      and f = pool_float p (wd ops (pc + 4)) in
      let ta = tag_of t ra in
      let fallback () =
        set_value t rd (Runtime.eval_binop op (box t ra) (Value.Float f))
      in
      if ta = tag_float || ta = tag_int then
        let a = if ta = tag_float then getf t ra else float_of_int (geti t ra)
        in
        match op with
        | Minicu.Ast.Add -> set_float t rd (a +. f)
        | Minicu.Ast.Sub -> set_float t rd (a -. f)
        | Minicu.Ast.Mul -> set_float t rd (a *. f)
        | Minicu.Ast.Div -> set_float t rd (a /. f)
        | Minicu.Ast.Lt -> set_bool t rd (Float.compare a f < 0)
        | Minicu.Ast.Le -> set_bool t rd (Float.compare a f <= 0)
        | Minicu.Ast.Gt -> set_bool t rd (Float.compare a f > 0)
        | Minicu.Ast.Ge -> set_bool t rd (Float.compare a f >= 0)
        | Minicu.Ast.Eq -> set_bool t rd (a = f)
        | Minicu.Ast.Ne -> set_bool t rd (a <> f)
        | _ -> fallback ()
      else fallback ());
      run p ops t (pc + 5)
  | 14 (* cmp.jf *) ->
      let op = Array.unsafe_get binop_tbl (wd ops (pc + 1)) in
      run p ops t
        (if cmp2 t op (b + wd ops (pc + 2)) (b + wd ops (pc + 3)) then pc + 5
         else wd ops (pc + 4))
  | 15 (* cmp.jf.int *) ->
      let op = Array.unsafe_get binop_tbl (wd ops (pc + 1)) in
      run p ops t
        (if cmp1 t op (b + wd ops (pc + 2)) (wd ops (pc + 3)) then pc + 5
         else wd ops (pc + 4))
  | 16 (* cmp.jt *) ->
      let op = Array.unsafe_get binop_tbl (wd ops (pc + 1)) in
      run p ops t
        (if cmp2 t op (b + wd ops (pc + 2)) (b + wd ops (pc + 3)) then
           wd ops (pc + 4)
         else pc + 5)
  | 17 (* cmp.jt.int *) ->
      let op = Array.unsafe_get binop_tbl (wd ops (pc + 1)) in
      run p ops t
        (if cmp1 t op (b + wd ops (pc + 2)) (wd ops (pc + 3)) then
           wd ops (pc + 4)
         else pc + 5)
  | 18 (* cast.int *) ->
      set_int t (b + wd ops (pc + 1)) (get_int t (b + wd ops (pc + 2)));
      run p ops t (pc + 3)
  | 19 (* cast.float *) ->
      set_float t (b + wd ops (pc + 1)) (get_float t (b + wd ops (pc + 2)));
      run p ops t (pc + 3)
  | 20 (* cast.bool *) ->
      set_bool t (b + wd ops (pc + 1)) (get_bool t (b + wd ops (pc + 2)));
      run p ops t (pc + 3)
  | 21 (* cast.dim3 *) ->
      let x, y, z = get_dim3 t (b + wd ops (pc + 2)) in
      set_dim3_v t (b + wd ops (pc + 1)) x y z;
      run p ops t (pc + 3)
  | 22 (* as_ptr *) ->
      let s = b + wd ops (pc + 2) in
      need_ptr t s;
      set_ptr_at t (b + wd ops (pc + 1)) (geti t s) (getib t s);
      run p ops t (pc + 3)
  | 23 (* dim3 *) ->
      (* Coerces z, y, x, the order the constructor evaluates them in. A
         [dim3] of variables, literals and built-in components gets its
         operands uncoerced, so these coercions can fail, with
         [cast.int]'s message. *)
      let vz = get_int t (b + wd ops (pc + 4)) in
      let vy = get_int t (b + wd ops (pc + 3)) in
      let vx = get_int t (b + wd ops (pc + 2)) in
      set_dim3_v t (b + wd ops (pc + 1)) vx vy vz;
      run p ops t (pc + 5)
  | 24 (* load *) ->
      let rp = b + wd ops (pc + 2) in
      need_ptr t rp;
      let i = get_int t (b + wd ops (pc + 3)) in
      let buf = geti t rp and off = getib t rp + i in
      load_into t (b + wd ops (pc + 1)) buf off;
      run p ops t (pc + 4)
  | 25 (* load.chk *) ->
      let rp = b + wd ops (pc + 2) in
      need_ptr t rp;
      let i = get_int t (b + wd ops (pc + 3)) in
      let buf = geti t rp and off = getib t rp + i in
      let loc = Array.unsafe_get p.bp_lpool (wd ops (pc + 4)) in
      check_access t ~kind:Racecheck.Read ~loc buf off;
      load_reg t (b + wd ops (pc + 1)) off (checked_storage t ~loc buf off);
      run p ops t (pc + 5)
  | 26 (* store *) ->
      let rp = b + wd ops (pc + 1) in
      need_ptr t rp;
      let i = get_int t (b + wd ops (pc + 2)) in
      store_reg t (geti t rp) (getib t rp + i) (b + wd ops (pc + 3));
      run p ops t (pc + 4)
  | 27 (* store.chk *) ->
      let rp = b + wd ops (pc + 1) in
      need_ptr t rp;
      let i = get_int t (b + wd ops (pc + 2)) in
      let buf = geti t rp and off = getib t rp + i in
      let loc = Array.unsafe_get p.bp_lpool (wd ops (pc + 4)) in
      check_access t ~kind:Racecheck.Write ~loc buf off;
      (try store_reg t buf off (b + wd ops (pc + 3))
       with Value.Runtime_error msg -> access_failed t ~loc msg);
      run p ops t (pc + 5)
  | 28 (* addr *) ->
      let rp = b + wd ops (pc + 2) in
      need_ptr t rp;
      let i = get_int t (b + wd ops (pc + 3)) in
      set_ptr_at t (b + wd ops (pc + 1)) (geti t rp) (getib t rp + i);
      run p ops t (pc + 4)
  | 29 (* min *) ->
      (let ra = b + wd ops (pc + 2) and rb = b + wd ops (pc + 3) in
       let d = b + wd ops (pc + 1) in
       if tag_of t ra = tag_float || tag_of t rb = tag_float then
         let bf = get_float t rb in
         let af = get_float t ra in
         set_float t d (Float.min af bf)
       else
         let bi = get_int t rb in
         let ai = get_int t ra in
         set_int t d (min ai bi));
      run p ops t (pc + 4)
  | 30 (* max *) ->
      (let ra = b + wd ops (pc + 2) and rb = b + wd ops (pc + 3) in
       let d = b + wd ops (pc + 1) in
       if tag_of t ra = tag_float || tag_of t rb = tag_float then
         let bf = get_float t rb in
         let af = get_float t ra in
         set_float t d (Float.max af bf)
       else
         let bi = get_int t rb in
         let ai = get_int t ra in
         set_int t d (max ai bi));
      run p ops t (pc + 4)
  | 31 (* abs *) ->
      (let r = b + wd ops (pc + 2) in
       let d = b + wd ops (pc + 1) in
       if tag_of t r = tag_float then set_float t d (Float.abs (getf t r))
       else set_int t d (abs (get_int t r)));
      run p ops t (pc + 3)
  | 32 (* float1 *) ->
      let x = get_float t (b + wd ops (pc + 3)) in
      set_float t
        (b + wd ops (pc + 2))
        (match wd ops (pc + 1) with
        | 0 -> Float.abs x
        | 1 -> Float.ceil x
        | 2 -> Float.floor x
        | 3 -> Float.sqrt x
        | 4 -> Float.exp x
        | _ -> Float.log x);
      run p ops t (pc + 4)
  | 33 (* pow *) ->
      (* Operands are [cast.float] results; y-side first, in the
         simulator's right-to-left argument order. *)
      let fy = get_float t (b + wd ops (pc + 3)) in
      let fx = get_float t (b + wd ops (pc + 2)) in
      set_float t (b + wd ops (pc + 1)) (Float.pow fx fy);
      run p ops t (pc + 4)
  | 34 (* atomic *) ->
      let aop = Array.unsafe_get atomic_tbl (wd ops (pc + 1)) in
      let rp = b + wd ops (pc + 3) in
      need_ptr t rp;
      let v = box t (b + wd ops (pc + 4)) in
      let old =
        Memory.atomic_rmw_at (memory t) (geti t rp) (getib t rp) atomic_combine
          aop
          v
      in
      set_value t (b + wd ops (pc + 2)) old;
      run p ops t (pc + 5)
  | 35 (* atomic.chk *) ->
      let aop = Array.unsafe_get atomic_tbl (wd ops (pc + 1)) in
      let rp = b + wd ops (pc + 3) in
      need_ptr t rp;
      let buf = geti t rp and off = getib t rp in
      let v = box t (b + wd ops (pc + 4)) in
      let loc = Array.unsafe_get p.bp_lpool (wd ops (pc + 5)) in
      check_access t ~kind:Racecheck.Atomic ~loc buf off;
      let old = checked_load t ~loc buf off in
      checked_store t ~loc buf off (atomic_combine aop v old);
      set_value t (b + wd ops (pc + 2)) old;
      run p ops t (pc + 6)
  | 36 (* cas *) ->
      let rp = b + wd ops (pc + 2) in
      need_ptr t rp;
      let cmpv = box t (b + wd ops (pc + 3)) in
      let v = box t (b + wd ops (pc + 4)) in
      let old =
        Memory.atomic_rmw_at (memory t) (geti t rp) (getib t rp) cas_combine
          cmpv v
      in
      set_value t (b + wd ops (pc + 1)) old;
      run p ops t (pc + 5)
  | 37 (* cas.chk *) ->
      let rp = b + wd ops (pc + 2) in
      need_ptr t rp;
      let buf = geti t rp and off = getib t rp in
      let cmpv = box t (b + wd ops (pc + 3)) in
      let v = box t (b + wd ops (pc + 4)) in
      let loc = Array.unsafe_get p.bp_lpool (wd ops (pc + 5)) in
      check_access t ~kind:Racecheck.Atomic ~loc buf off;
      let old = checked_load t ~loc buf off in
      if Value.as_int old = Value.as_int cmpv then
        checked_store t ~loc buf off v;
      set_value t (b + wd ops (pc + 1)) old;
      run p ops t (pc + 6)
  | 38 (* malloc *) ->
      let n = get_int t (b + wd ops (pc + 2)) in
      set_ptr t (b + wd ops (pc + 1)) (Memory.malloc (memory t) n);
      run p ops t (pc + 3)
  | 39 (* warp *) ->
      if t.blk.Runtime.is_host_ctx then (
        (match wd ops (pc + 2) with
        | 3 (* Wk_sync *) -> set_unit t (b + wd ops (pc + 1))
        | _ -> Value.error "warp collective in host context");
        run p ops t (pc + 4))
      else begin
        let wop =
          match wd ops (pc + 2) with
          | 0 -> Runtime.W_scan_excl
          | 1 -> Runtime.W_sum
          | 2 -> Runtime.W_max
          | _ -> Runtime.W_sync
        in
        t.pc <- pc + 4;
        t.wdst <- b + wd ops (pc + 1);
        t.status <-
          T_at_warp { Runtime.wop; warg = box t (b + wd ops (pc + 3)) }
      end
  | 40 (* warp.bcast *) ->
      if t.blk.Runtime.is_host_ctx then
        Value.error "warp collective in host context"
      else begin
        let lane = geti t (b + wd ops (pc + 3)) in
        t.pc <- pc + 4;
        t.wdst <- b + wd ops (pc + 1);
        t.status <-
          T_at_warp
            {
              Runtime.wop = Runtime.W_bcast lane;
              warg = box t (b + wd ops (pc + 2));
            }
      end
  | 41 (* call *) ->
      let callee = Array.unsafe_get p.bp_funcs (wd ops (pc + 2)) in
      let nargs = wd ops (pc + 4) in
      let nbase = t.base + t.nregs in
      grow_regs t (nbase + callee.bf_nregs);
      if callee.bf_nregs > 0 then
        Bytes.fill t.tags nbase callee.bf_nregs '\000';
      for i = 0 to nargs - 1 do
        copy_reg t (nbase + i) (b + wd ops (pc + 5 + i))
      done;
      grow_stack t;
      let dep = t.depth in
      t.st_ret.(dep) <- pc + 5 + nargs;
      t.st_base.(dep) <- t.base;
      t.st_dst.(dep) <- b + wd ops (pc + 1);
      t.st_nregs.(dep) <- t.nregs;
      t.depth <- dep + 1;
      t.base <- nbase;
      t.nregs <- callee.bf_nregs;
      if callee.bf_is_serial then
        t.blk.Runtime.metrics.Metrics.serialized_launches <-
          t.blk.Runtime.metrics.Metrics.serialized_launches + 1;
      run p ops t (wd ops (pc + 3))
  | 42 (* ret.unit *) ->
      let ret = return t (-1) in
      if ret >= 0 then run p ops t ret
  | 43 (* ret *) ->
      let ret = return t (wd ops (pc + 1)) in
      if ret >= 0 then run p ops t ret
  | 44 (* jump *) -> run p ops t (wd ops (pc + 1))
  | 45 (* jfalse *) ->
      run p ops t
        (if get_bool t (b + wd ops (pc + 1)) then pc + 3 else wd ops (pc + 2))
  | 46 (* jtrue *) ->
      run p ops t
        (if get_bool t (b + wd ops (pc + 1)) then wd ops (pc + 2) else pc + 3)
  | 47 (* charge *) ->
      charge_tag t (wd ops (pc + 1)) (pool_float p (wd ops (pc + 2)));
      run p ops t (pc + 3)
  | 48 (* split.dim3 *) ->
      let r = b + wd ops (pc + 4) in
      let x, y, z =
        match tag_of t r with
        | 4 -> (geti t r, getib t r, getic t r)
        | 1 -> (geti t r, 1, 1)
        | 0 -> (1, 1, 1)
        | _ ->
            Value.error "member assignment on non-dim3 %a" Value.pp (box t r)
      in
      set_int t (b + wd ops (pc + 1)) x;
      set_int t (b + wd ops (pc + 2)) y;
      set_int t (b + wd ops (pc + 3)) z;
      run p ops t (pc + 5)
  | 49 (* set.dim3 *) ->
      let n = get_int t (b + wd ops (pc + 6)) in
      let x = geti t (b + wd ops (pc + 3))
      and y = geti t (b + wd ops (pc + 4))
      and z = geti t (b + wd ops (pc + 5)) in
      let x, y, z =
        match Array.unsafe_get p.bp_spool (wd ops (pc + 2)) with
        | "x" -> (n, y, z)
        | "y" -> (x, n, z)
        | "z" -> (x, y, n)
        | f -> Value.error "dim3 has no member %S" f
      in
      set_dim3_v t (b + wd ops (pc + 1)) x y z;
      run p ops t (pc + 7)
  | 50 (* mload.dim3 *) ->
      let rp = b + wd ops (pc + 4) in
      need_ptr t rp;
      let i = get_int t (b + wd ops (pc + 5)) in
      let x, y, z =
        stored_dim3 (Memory.load_at (memory t) (geti t rp) (getib t rp + i))
      in
      set_int t (b + wd ops (pc + 1)) x;
      set_int t (b + wd ops (pc + 2)) y;
      set_int t (b + wd ops (pc + 3)) z;
      run p ops t (pc + 6)
  | 51 (* mload.chk *) ->
      let rp = b + wd ops (pc + 4) in
      need_ptr t rp;
      let i = get_int t (b + wd ops (pc + 5)) in
      let buf = geti t rp and off = getib t rp + i in
      let loc = Array.unsafe_get p.bp_lpool (wd ops (pc + 6)) in
      check_access t ~kind:Racecheck.Write ~loc buf off;
      let x, y, z = stored_dim3 (checked_load t ~loc buf off) in
      set_int t (b + wd ops (pc + 1)) x;
      set_int t (b + wd ops (pc + 2)) y;
      set_int t (b + wd ops (pc + 3)) z;
      run p ops t (pc + 7)
  | 52 (* mstore.dim3 *) ->
      let rp = b + wd ops (pc + 1) in
      need_ptr t rp;
      let i = get_int t (b + wd ops (pc + 2)) in
      let buf = geti t rp and off = getib t rp + i in
      let n = get_int t (b + wd ops (pc + 7)) in
      let x = geti t (b + wd ops (pc + 4))
      and y = geti t (b + wd ops (pc + 5))
      and z = geti t (b + wd ops (pc + 6)) in
      let d =
        match Array.unsafe_get p.bp_spool (wd ops (pc + 3)) with
        | "x" -> (n, y, z)
        | "y" -> (x, n, z)
        | "z" -> (x, y, n)
        | f -> Value.error "dim3 has no member %S" f
      in
      Memory.store_at (memory t) buf off (Value.Dim3 d);
      run p ops t (pc + 8)
  | 53 (* mstore.chk *) ->
      let rp = b + wd ops (pc + 1) in
      need_ptr t rp;
      let i = get_int t (b + wd ops (pc + 2)) in
      let buf = geti t rp and off = getib t rp + i in
      let n = get_int t (b + wd ops (pc + 7)) in
      let x = geti t (b + wd ops (pc + 4))
      and y = geti t (b + wd ops (pc + 5))
      and z = geti t (b + wd ops (pc + 6)) in
      let d =
        match Array.unsafe_get p.bp_spool (wd ops (pc + 3)) with
        | "x" -> (n, y, z)
        | "y" -> (x, n, z)
        | "z" -> (x, y, n)
        | f -> Value.error "dim3 has no member %S" f
      in
      let loc = Array.unsafe_get p.bp_lpool (wd ops (pc + 8)) in
      checked_store t ~loc buf off (Value.Dim3 d);
      run p ops t (pc + 9)
  | 54 (* shared.hit *) -> (
      match Hashtbl.find_opt t.blk.Runtime.shared (wd ops (pc + 2)) with
      | Some ptr ->
          set_ptr t (b + wd ops (pc + 1)) ptr;
          run p ops t (wd ops (pc + 3))
      | None -> run p ops t (pc + 4))
  | 55 (* shared.new *) ->
      let n = get_int t (b + wd ops (pc + 3)) in
      let dv = Array.unsafe_get p.bp_vpool (wd ops (pc + 4)) in
      let ptr = Memory.alloc (memory t) n ~init:dv in
      Hashtbl.add t.blk.Runtime.shared (wd ops (pc + 2)) ptr;
      set_ptr t (b + wd ops (pc + 1)) ptr;
      run p ops t (pc + 5)
  | 56 (* launch.chk *) ->
      let kernel = Array.unsafe_get p.bp_spool (wd ops (pc + 1)) in
      let g = b + wd ops (pc + 2) in
      let blkr = b + wd ops (pc + 3) in
      Runtime.check_launch_shape t.blk.Runtime.cfg ~kernel
        ~grid:(geti t g, getib t g, getic t g)
        ~block:(geti t blkr, getib t blkr, getic t blkr);
      run p ops t (pc + 4)
  | 57 (* launch *) ->
      let kernel = Array.unsafe_get p.bp_spool (wd ops (pc + 1)) in
      let g = b + wd ops (pc + 2) in
      let grid = (geti t g, getib t g, getic t g) in
      let blkr = b + wd ops (pc + 3) in
      let block = (geti t blkr, getib t blkr, getic t blkr) in
      let nargs = wd ops (pc + 4) in
      let rec collect i =
        if i = nargs then []
        else box t (b + wd ops (pc + 5 + i)) :: collect (i + 1)
      in
      let args = collect 0 in
      t.blk.Runtime.launches <-
        {
          Runtime.lr_kernel = kernel;
          lr_grid = grid;
          lr_block = block;
          lr_args = args;
          lr_issue_cost = t.tot.(0);
          lr_from_host = t.blk.Runtime.is_host_ctx;
        }
        :: t.blk.Runtime.launches;
      run p ops t (pc + 5 + nargs)
  | 58 (* sync *) ->
      if t.blk.Runtime.is_host_ctx then run p ops t (pc + 1)
      else begin
        t.pc <- pc + 1;
        t.status <- T_at_sync
      end
  (* Superinstructions — rotated-loop bottoms fused by the packer. Each
     arm runs the exact sub-step bodies (charge, increment with opcode-12
     Add semantics, fused compare-branch) in unfused order. *)
  | 59 (* loop.cc: charge; d += 1; cmp.jt *) ->
      charge_tag t (wd ops (pc + 1)) (pool_float p (wd ops (pc + 2)));
      let d = b + wd ops (pc + 3) in
      (match tag_of t d with
      | 1 -> set_int t d (geti t d + 1)
      | 2 -> set_float t d (getf t d +. 1.0)
      | _ ->
          set_value t d
            (Runtime.eval_binop Minicu.Ast.Add (box t d) (Value.Int 1)));
      let ra = b + wd ops (pc + 5) and rb = b + wd ops (pc + 6) in
      (* inline the dominant int-int Lt case (counting loops) *)
      let taken =
        if wd ops (pc + 4) = 5 && tag_of t ra = 1 && tag_of t rb = 1 then
          geti t ra < geti t rb
        else cmp2 t (Array.unsafe_get binop_tbl (wd ops (pc + 4))) ra rb
      in
      run p ops t (if taken then wd ops (pc + 7) else pc + 8)
  | 60 (* loop.cci: charge; d += 1; cmp.jt.int *) ->
      charge_tag t (wd ops (pc + 1)) (pool_float p (wd ops (pc + 2)));
      let d = b + wd ops (pc + 3) in
      (match tag_of t d with
      | 1 -> set_int t d (geti t d + 1)
      | 2 -> set_float t d (getf t d +. 1.0)
      | _ ->
          set_value t d
            (Runtime.eval_binop Minicu.Ast.Add (box t d) (Value.Int 1)));
      let ra = b + wd ops (pc + 5) in
      (* inline the dominant int Lt case (counting loops) *)
      let taken =
        if wd ops (pc + 4) = 5 && tag_of t ra = 1 then
          geti t ra < wd ops (pc + 6)
        else
          cmp1 t
            (Array.unsafe_get binop_tbl (wd ops (pc + 4)))
            ra
            (wd ops (pc + 6))
      in
      run p ops t (if taken then wd ops (pc + 7) else pc + 8)
  | 61 (* charge.jt: charge; cmp.jt *) ->
      charge_tag t (wd ops (pc + 1)) (pool_float p (wd ops (pc + 2)));
      let op = Array.unsafe_get binop_tbl (wd ops (pc + 3)) in
      run p ops t
        (if cmp2 t op (b + wd ops (pc + 4)) (b + wd ops (pc + 5)) then
           wd ops (pc + 6)
         else pc + 7)
  | 62 (* charge.jti: charge; cmp.jt.int *) ->
      charge_tag t (wd ops (pc + 1)) (pool_float p (wd ops (pc + 2)));
      let op = Array.unsafe_get binop_tbl (wd ops (pc + 3)) in
      run p ops t
        (if cmp1 t op (b + wd ops (pc + 4)) (wd ops (pc + 5)) then
           wd ops (pc + 6)
         else pc + 7)
  (* Load superinstructions — an indexed load's operand coercions fused
     with it by the packer. Each arm runs the unfused sub-steps in order,
     register writes included. *)
  | 63 (* as_ptr.ld: as_ptr tp; cast.int ti; load d, tp, ti *) ->
      let rp = b + wd ops (pc + 2) in
      need_ptr t rp;
      let buf = geti t rp and off = getib t rp in
      set_ptr_at t (b + wd ops (pc + 1)) buf off;
      let i = get_int t (b + wd ops (pc + 4)) in
      set_int t (b + wd ops (pc + 3)) i;
      let off = off + i in
      load_into t (b + wd ops (pc + 5)) buf off;
      run p ops t (pc + 6)
  | 64 (* cast.ld: cast.int ti; load d, p, ti *) ->
      let i = get_int t (b + wd ops (pc + 2)) in
      set_int t (b + wd ops (pc + 1)) i;
      let rp = b + wd ops (pc + 4) in
      need_ptr t rp;
      let buf = geti t rp and off = getib t rp + i in
      load_into t (b + wd ops (pc + 3)) buf off;
      run p ops t (pc + 5)
  | 70 (* as_ptr.ldi: as_ptr tp, s; load d, tp, ti *) ->
      let rp = b + wd ops (pc + 2) in
      need_ptr t rp;
      let buf = geti t rp and off = getib t rp in
      set_ptr_at t (b + wd ops (pc + 1)) buf off;
      let off = off + get_int t (b + wd ops (pc + 3)) in
      load_into t (b + wd ops (pc + 4)) buf off;
      run p ops t (pc + 5)
  | 65 (* uniform.end *) ->
      t.pc <- pc + 1;
      t.status <- T_at_prefix_end
  (* A basic block's charges, carried into its terminator by the packer
     (61 and 62 above are the cmp.jt forms). *)
  | 66 (* charge.jf: charge; cmp.jf *) ->
      charge_tag t (wd ops (pc + 1)) (pool_float p (wd ops (pc + 2)));
      let op = Array.unsafe_get binop_tbl (wd ops (pc + 3)) in
      run p ops t
        (if cmp2 t op (b + wd ops (pc + 4)) (b + wd ops (pc + 5)) then pc + 7
         else wd ops (pc + 6))
  | 67 (* charge.jfi: charge; cmp.jf.int *) ->
      charge_tag t (wd ops (pc + 1)) (pool_float p (wd ops (pc + 2)));
      let op = Array.unsafe_get binop_tbl (wd ops (pc + 3)) in
      run p ops t
        (if cmp1 t op (b + wd ops (pc + 4)) (wd ops (pc + 5)) then pc + 7
         else wd ops (pc + 6))
  | 68 (* charge.jump *) ->
      charge_tag t (wd ops (pc + 1)) (pool_float p (wd ops (pc + 2)));
      run p ops t (wd ops (pc + 3))
  | 69 (* charge.ret *) ->
      charge_tag t (wd ops (pc + 1)) (pool_float p (wd ops (pc + 2)));
      let ret = return t (wd ops (pc + 3)) in
      if ret >= 0 then run p ops t ret
  | _ -> assert false

let interp (p : Bytecode.prog) (t : thread) = run p p.bp_ops t t.pc

(* ------------------------------------------------------------------ *)
(* Thread pool (per-scheduler scratch arena)                           *)
(* ------------------------------------------------------------------ *)

let make_thread (blk : Runtime.bctx) : thread =
  {
    tags = Bytes.make 64 '\000';
    ia = Array.make 64 0;
    ib = Array.make 64 0;
    ic = Array.make 64 0;
    fa = Array.make 64 0.0;
    base = 0;
    nregs = 0;
    pc = 0;
    st_ret = Array.make 8 0;
    st_base = Array.make 8 0;
    st_dst = Array.make 8 0;
    st_nregs = Array.make 8 0;
    depth = 0;
    costs = Array.make Metrics.num_tags 0.0;
    tot = Array.make 1 0.0;
    default_idx = 0;
    tidx = (0, 0, 0);
    blk;
    status = T_not_started;
    wdst = 0;
  }

(* [saved] and [gens] hold what a block's first thread had at the end of
   the kernel's block-uniform prefix: the prefix's registers and the
   costs (in [saved]), and per loaded-through parameter its buffer id and
   that buffer's write generation (two ints each, in [gens]). [tidxs] is
   the [threadIdx] of each thread of a [tshape] block. *)
type scratch = {
  mutable threads : thread array;
  mutable saved : thread option;
  mutable gens : int array;
  mutable tidxs : (int * int * int) array;
  mutable tshape : int * int * int;
}

let create_scratch () =
  {
    threads = [||];
    saved = None;
    gens = [||];
    tidxs = [||];
    tshape = (0, 0, 0);
  }

(* The [threadIdx] tuples of a [bdim] block, built once per block shape
   so that starting a thread allocates nothing. *)
let thread_indices (s : scratch) ((bx, by, bz) as bdim) =
  let sx, sy, sz = s.tshape in
  if sx <> bx || sy <> by || sz <> bz then begin
    s.tidxs <-
      Array.init (bx * by * bz) (fun i ->
          (i mod bx, i / bx mod by, i / (bx * by)));
    s.tshape <- bdim
  end;
  s.tidxs

let ensure_threads (s : scratch) (blk : Runtime.bctx) n =
  let have = Array.length s.threads in
  if have < n then begin
    let old = s.threads in
    s.threads <-
      Array.init n (fun i -> if i < have then old.(i) else make_thread blk)
  end

(* Reset a pooled thread for a fresh block run: rebind the block context,
   zero the cost counters, point the pc at the kernel entry and seed the
   frame with the launch arguments. Registers beyond the arguments keep
   stale payloads but get Unit tags, so they read as uninitialized. *)
let reset_thread (t : thread) (blk : Runtime.bctx) ~tidx ~default_idx ~entry
    ~nregs ~(args : Value.t array) =
  t.blk <- blk;
  t.tidx <- tidx;
  t.default_idx <- default_idx;
  Array.fill t.costs 0 (Array.length t.costs) 0.0;
  t.tot.(0) <- 0.0;
  t.base <- 0;
  t.depth <- 0;
  t.pc <- entry;
  grow_regs t nregs;
  t.nregs <- nregs;
  Bytes.fill t.tags 0 nregs '\000';
  for i = 0 to Array.length args - 1 do
    set_value t i (Array.unsafe_get args i)
  done;
  t.status <- T_not_started;
  t.wdst <- 0

(* ------------------------------------------------------------------ *)
(* Block-uniform prefixes                                              *)
(* ------------------------------------------------------------------ *)

(* The scratch's prefix record, sized for a kernel of [nregs] registers
   and prefix [u]. *)
let prefix_record (s : scratch) blk ~nregs (u : Bytecode.uniform) =
  let saved =
    match s.saved with
    | Some t -> t
    | None ->
        let t = make_thread blk in
        s.saved <- Some t;
        t
  in
  grow_regs saved nregs;
  let n = 2 * Array.length u.u_params in
  if Array.length s.gens < n then s.gens <- Array.make n 0;
  saved

(* Copy the prefix's registers, the per-tag costs and their total. *)
let copy_prefix (u : Bytecode.uniform) ~(dst : thread) ~(src : thread) =
  for k = 0 to Array.length u.u_regs - 1 do
    let r = Array.unsafe_get u.u_regs k in
    Bytes.unsafe_set dst.tags r (Bytes.unsafe_get src.tags r);
    Array.unsafe_set dst.ia r (Array.unsafe_get src.ia r);
    Array.unsafe_set dst.ib r (Array.unsafe_get src.ib r);
    Array.unsafe_set dst.ic r (Array.unsafe_get src.ic r);
    Array.unsafe_set dst.fa r (Array.unsafe_get src.fa r)
  done;
  Array.blit src.costs 0 dst.costs 0 Metrics.num_tags;
  dst.tot.(0) <- src.tot.(0)

(* Record [t]'s state at the end of the prefix, with the write generation
   of each buffer a loaded-through parameter points into (a parameter
   that holds no pointer can have loaded nothing). *)
let record_prefix (u : Bytecode.uniform) mem gens ~saved (t : thread) =
  copy_prefix u ~dst:saved ~src:t;
  for k = 0 to Array.length u.u_params - 1 do
    let q = u.u_params.(k) in
    let buf = if tag_of t q = tag_ptr then geti t q else -1 in
    gens.(2 * k) <- buf;
    gens.((2 * k) + 1) <- Memory.generation mem buf
  done

(* Whether none of the first [k + 1] recorded buffers has been written
   since. *)
let rec unwritten mem gens k =
  k < 0
  || Memory.generation mem (Array.unsafe_get gens (2 * k))
     = Array.unsafe_get gens ((2 * k) + 1)
     && unwritten mem gens (k - 1)

(* ------------------------------------------------------------------ *)
(* Block execution                                                     *)
(* ------------------------------------------------------------------ *)

let run_block (s : scratch) (p : Bytecode.prog) (kernel : Bytecode.func)
    ~(args : Value.t list) ~(gdim : int * int * int)
    ~(bdim : int * int * int) ~(bidx : int * int * int) ~(mem : Memory.t)
    ~(cfg : Config.t) ~(metrics : Metrics.t) ~(default_idx : int) :
    Runtime.result =
  let bx, by, bz = bdim in
  let nthreads = bx * by * bz in
  if nthreads <= 0 then Value.error "empty block dimension";
  let ws = cfg.Config.warp_size in
  let nwarps = (nthreads + ws - 1) / ws in
  let racecheck =
    if cfg.Config.check then Some (Racecheck.create ~warp_size:ws ~nwarps)
    else None
  in
  let blk =
    {
      Runtime.mem;
      cfg;
      metrics;
      bidx;
      bdim;
      gdim;
      shared = Hashtbl.create 4;
      launches = [];
      is_host_ctx = false;
      racecheck;
    }
  in
  let serialized0 = metrics.Metrics.serialized_launches in
  let arg_values = Array.of_list args in
  if Array.length arg_values <> kernel.bf_nparams then
    Value.error "launch of %S: expected %d arguments, got %d" kernel.bf_name
      kernel.bf_nparams (Array.length arg_values);
  let entry_cost =
    if kernel.bf_contains_launch then float_of_int cfg.Config.cdp_entry_cost
    else 0.0
  in
  ensure_threads s blk nthreads;
  let threads = s.threads in
  let nregs = max kernel.bf_nregs 1 in
  let entry = p.bp_woff.(kernel.bf_entry) in
  let tidxs = thread_indices s bdim in
  for i = 0 to nthreads - 1 do
    reset_thread threads.(i) blk ~tidx:tidxs.(i) ~default_idx ~entry ~nregs
      ~args:arg_values
  done;
  (* The kernel's block-uniform prefix runs once per block: the first
     thread to reach its end records it, and a later thread whose
     buffers nobody has written since copies that record and starts after
     the marker. Off under [check], whose race reports need every
     thread's loads, and in one-thread blocks. *)
  let prefix =
    match kernel.bf_uniform with
    | Some u when nthreads > 1 && not cfg.Config.check ->
        Some (u, prefix_record s blk ~nregs u)
    | _ -> None
  in
  let recorded = ref false in
  let start i =
    let t = threads.(i) in
    (match prefix with
    | Some (u, saved)
      when !recorded && unwritten mem s.gens (Array.length u.u_params - 1) ->
        copy_prefix u ~dst:t ~src:saved;
        t.pc <- p.bp_woff.(u.u_end) + 1
    | _ -> if entry_cost > 0.0 then charge_tag t Metrics.tag_default entry_cost);
    t.status <- T_running;
    interp p t;
    match t.status with
    | T_at_prefix_end ->
        (match prefix with
        | Some (u, saved) ->
            record_prefix u mem s.gens ~saved t;
            recorded := true
        | None -> ());
        t.status <- T_running;
        interp p t
    | _ -> ()
  in
  (* Advance one warp until every lane is done or at the barrier. *)
  let rec advance_warp w =
    let lo = w * ws and hi = min ((w + 1) * ws) nthreads in
    for i = lo to hi - 1 do
      match threads.(i).status with
      | T_not_started -> start i
      | _ -> ()
    done;
    (* collect warp-collective suspensions *)
    let warp_reqs = ref [] in
    for i = hi - 1 downto lo do
      match threads.(i).status with
      | T_at_warp req -> warp_reqs := (i, req) :: !warp_reqs
      | _ -> ()
    done;
    match !warp_reqs with
    | [] -> ()
    | reqs ->
        (* every live lane must be at the collective *)
        for i = lo to hi - 1 do
          match threads.(i).status with
          | T_at_warp _ | T_done -> ()
          | T_at_sync ->
              Value.error
                "lane %d reached __syncthreads while its warp executes a \
                 warp collective"
                (i - lo)
          | T_not_started | T_running | T_at_prefix_end -> assert false
        done;
        let results = Runtime.eval_warp_op reqs in
        (* the collective orders this warp's accesses across it: new warp
           epoch before the lanes resume *)
        (match blk.Runtime.racecheck with
        | Some rc -> Racecheck.bump_wepoch rc w
        | None -> ());
        List.iter
          (fun (i, v) ->
            let t = threads.(i) in
            set_value t t.wdst v;
            t.status <- T_running;
            interp p t)
          results;
        advance_warp w
  in
  let all_done () =
    let ok = ref true in
    for i = 0 to nthreads - 1 do
      match threads.(i).status with T_done -> () | _ -> ok := false
    done;
    !ok
  in
  let epochs = ref 0 in
  let rec block_loop () =
    incr epochs;
    if !epochs > 1_000_000 then
      Value.error "block executor: too many barrier epochs (livelock?)";
    for w = 0 to nwarps - 1 do
      advance_warp w
    done;
    if not (all_done ()) then begin
      (* all remaining threads are at the barrier: release them; the new
         barrier epoch starts before any thread resumes *)
      (match blk.Runtime.racecheck with
      | Some rc -> Racecheck.bump_epoch rc
      | None -> ());
      let waiting = ref 0 in
      for i = 0 to nthreads - 1 do
        let t = threads.(i) in
        match t.status with
        | T_at_sync ->
            incr waiting;
            t.status <- T_running;
            interp p t
        | _ -> ()
      done;
      if !waiting = 0 then
        Value.error "block executor: threads neither done nor at a barrier";
      block_loop ()
    end
  in
  block_loop ();
  (match blk.Runtime.racecheck with
  | Some rc -> Racecheck.commit rc ~kernel:kernel.bf_name ~bidx metrics
  | None -> ());
  (* free shared-memory buffers *)
  Hashtbl.iter (fun _ ptr -> Memory.free mem ptr) blk.Runtime.shared;
  (* cost aggregation: per-warp, per-tag maxima *)
  let tag_cycles = Array.make Metrics.num_tags 0.0 in
  for w = 0 to nwarps - 1 do
    let lo = w * ws and hi = min ((w + 1) * ws) nthreads in
    for tag = 0 to Metrics.num_tags - 1 do
      let m = ref 0.0 in
      for i = lo to hi - 1 do
        let c = threads.(i).costs.(tag) in
        if c > !m then m := c
      done;
      tag_cycles.(tag) <- tag_cycles.(tag) +. !m
    done
  done;
  tag_cycles.(default_idx) <-
    tag_cycles.(default_idx) +. tag_cycles.(Metrics.tag_default);
  tag_cycles.(Metrics.tag_default) <- 0.0;
  let par = float_of_int cfg.Config.sm_warp_parallelism in
  let scaled = Array.map (fun c -> c /. par) tag_cycles in
  {
    Runtime.r_launches = List.rev blk.Runtime.launches;
    r_compute_cycles = Array.fold_left ( +. ) 0.0 scaled;
    r_tag_cycles = scaled;
    r_serialized = metrics.Metrics.serialized_launches - serialized0;
  }

(* Host-followup execution (grid-granularity aggregation): one
   pseudo-thread, host launch semantics. No device cost is charged: the
   host CPU is not the simulated device, and the scheduler accounts for
   host work via {!Config.host_launch_latency}. [entry] is an instruction
   index ([bf_followup]); translated to its word offset here. *)
let run_host_stmts (p : Bytecode.prog) (kernel : Bytecode.func)
    ~(entry : int) ~(args : Value.t list) ~(grid : int * int * int)
    ~(block : int * int * int) ~(mem : Memory.t) ~(cfg : Config.t)
    ~(metrics : Metrics.t) : Runtime.launch_req list =
  let blk =
    {
      Runtime.mem;
      cfg;
      metrics;
      bidx = (0, 0, 0);
      bdim = block;
      gdim = grid;
      shared = Hashtbl.create 1;
      launches = [];
      is_host_ctx = true;
      racecheck = None;
    }
  in
  let t = make_thread blk in
  let nregs = max kernel.bf_nregs 1 in
  grow_regs t nregs;
  t.nregs <- nregs;
  Bytes.fill t.tags 0 nregs '\000';
  List.iteri (fun i v -> if i < nregs then set_value t i v) args;
  t.default_idx <- Metrics.tag_parent;
  t.pc <- p.bp_woff.(entry);
  t.status <- T_running;
  interp p t;
  List.rev blk.Runtime.launches
