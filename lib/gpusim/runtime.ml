(** Runtime pieces of the simulator's execution engine shared by the
    lowering ({!Bytecode}), the VM ({!Vm}), the scheduler ({!Sched}) and
    the analytical cost model ({e lib/costmodel}): the per-block context,
    launch requests and block results, the dynamic semantics of binary
    operators and warp collectives, and the static cost formulas. *)

open Minicu
open Minicu.Ast

(* ------------------------------------------------------------------ *)
(* Block context, launches, results                                    *)
(* ------------------------------------------------------------------ *)

type warp_op = W_scan_excl | W_sum | W_max | W_bcast of int | W_sync

type warp_req = { wop : warp_op; warg : Value.t }

type launch_req = {
  lr_kernel : string;
  lr_grid : int * int * int;
  lr_block : int * int * int;
  lr_args : Value.t list;
  lr_issue_cost : float;
      (** The launching thread's accumulated cost when the launch was issued;
          the scheduler turns this into an issue-time offset. *)
  lr_from_host : bool;
}

type bctx = {
  mem : Memory.t;
  cfg : Config.t;
  metrics : Metrics.t;
  bidx : int * int * int;
  bdim : int * int * int;
  gdim : int * int * int;
  shared : (int, Value.ptr) Hashtbl.t;
      (** Shared-memory buffers, keyed by declaration id (allocated by the
          first thread to reach the declaration; uniform across the block). *)
  mutable launches : launch_req list;  (** Launches issued by this block. *)
  is_host_ctx : bool;  (** True when running a host followup. *)
  racecheck : Racecheck.t option;
      (** Per-block dynamic race detector; [Some] only when [Config.check]
          is set and this is a device block. *)
}

type result = {
  r_launches : launch_req list;  (** In issue order. *)
  r_compute_cycles : float;
      (** Parallelism-scaled compute cycles: block duration excluding
          scheduling overhead. *)
  r_tag_cycles : float array;  (** Parallelism-scaled cycles per tag index. *)
  r_serialized : int;  (** Serialized launches the block made. *)
}

let check_launch_shape (cfg : Config.t) ~kernel ~grid:(gx, gy, gz)
    ~block:(bx, by, bz) =
  if gx < 1 || gy < 1 || gz < 1 then
    Value.error "launch of %S with empty grid (%d,%d,%d)" kernel gx gy gz;
  if bx < 1 || by < 1 || bz < 1 then
    Value.error "launch of %S with empty block (%d,%d,%d)" kernel bx by bz;
  if bx * by * bz > cfg.max_threads_per_block then
    Value.error "launch of %S with %d threads per block (max %d)" kernel
      (bx * by * bz) cfg.max_threads_per_block

(* ------------------------------------------------------------------ *)
(* Dynamic semantics                                                   *)
(* ------------------------------------------------------------------ *)

let eval_binop op (a : Value.t) (b : Value.t) : Value.t =
  match op with
  | Add -> (
      match (a, b) with
      | Value.Ptr p, v -> Value.Ptr { p with off = p.off + Value.as_int v }
      | v, Value.Ptr p -> Value.Ptr { p with off = p.off + Value.as_int v }
      | _ ->
          if Value.is_float a || Value.is_float b then
            Value.Float (Value.as_float a +. Value.as_float b)
          else Value.Int (Value.as_int a + Value.as_int b))
  | Sub -> (
      match (a, b) with
      | Value.Ptr p, Value.Ptr q ->
          if p.buf <> q.buf then
            Value.error "subtracting pointers into different buffers";
          Value.Int (p.off - q.off)
      | Value.Ptr p, v -> Value.Ptr { p with off = p.off - Value.as_int v }
      | _ ->
          if Value.is_float a || Value.is_float b then
            Value.Float (Value.as_float a -. Value.as_float b)
          else Value.Int (Value.as_int a - Value.as_int b))
  | Mul ->
      if Value.is_float a || Value.is_float b then
        Value.Float (Value.as_float a *. Value.as_float b)
      else Value.Int (Value.as_int a * Value.as_int b)
  | Div ->
      if Value.is_float a || Value.is_float b then
        Value.Float (Value.as_float a /. Value.as_float b)
      else
        let d = Value.as_int b in
        if d = 0 then Value.error "integer division by zero";
        Value.Int (Value.as_int a / d)
  | Mod ->
      let d = Value.as_int b in
      if d = 0 then Value.error "integer modulo by zero";
      Value.Int (Value.as_int a mod d)
  | Lt | Le | Gt | Ge -> (
      let c =
        if Value.is_float a || Value.is_float b then
          compare (Value.as_float a) (Value.as_float b)
        else compare (Value.as_int a) (Value.as_int b)
      in
      Value.Bool
        (match op with
        | Lt -> c < 0
        | Le -> c <= 0
        | Gt -> c > 0
        | _ -> c >= 0))
  | Eq | Ne -> (
      let eq =
        match (a, b) with
        | Value.Ptr p, Value.Ptr q -> p = q
        | _ ->
            if Value.is_float a || Value.is_float b then
              Value.as_float a = Value.as_float b
            else Value.as_int a = Value.as_int b
      in
      Value.Bool (match op with Eq -> eq | _ -> not eq))
  | LAnd -> Value.Bool (Value.as_bool a && Value.as_bool b)
  | LOr -> Value.Bool (Value.as_bool a || Value.as_bool b)
  | BAnd -> Value.Int (Value.as_int a land Value.as_int b)
  | BOr -> Value.Int (Value.as_int a lor Value.as_int b)
  | BXor -> Value.Int (Value.as_int a lxor Value.as_int b)
  | Shl -> Value.Int (Value.as_int a lsl Value.as_int b)
  | Shr -> Value.Int (Value.as_int a asr Value.as_int b)

(* [reqs] holds (lane index within the warp, request) pairs in lane
   order; returns the per-lane results. *)
let eval_warp_op (reqs : (int * warp_req) list) : (int * Value.t) list =
  match reqs with
  | [] -> []
  | (_, first) :: _ -> (
      let same_op (r : warp_req) =
        match (first.wop, r.wop) with
        | W_scan_excl, W_scan_excl
        | W_sum, W_sum
        | W_max, W_max
        | W_sync, W_sync ->
            true
        | W_bcast a, W_bcast b -> a = b
        | _ -> false
      in
      if not (List.for_all (fun (_, r) -> same_op r) reqs) then
        Value.error
          "divergent warp collectives: all lanes must execute the same \
           collective";
      match first.wop with
      | W_sync -> List.map (fun (i, _) -> (i, Value.Unit)) reqs
      | W_sum ->
          let s =
            List.fold_left (fun acc (_, r) -> acc + Value.as_int r.warg) 0 reqs
          in
          List.map (fun (i, _) -> (i, Value.Int s)) reqs
      | W_max ->
          let m =
            List.fold_left
              (fun acc (_, r) -> max acc (Value.as_int r.warg))
              min_int reqs
          in
          List.map (fun (i, _) -> (i, Value.Int m)) reqs
      | W_scan_excl ->
          (* lanes are in lane order; exclusive prefix sum over live lanes *)
          let acc = ref 0 in
          List.map
            (fun (i, r) ->
              let before = !acc in
              acc := !acc + Value.as_int r.warg;
              (i, Value.Int before))
            reqs
      | W_bcast lane ->
          let v =
            match List.assoc_opt lane (List.map (fun (i, r) -> (i, r.warg)) reqs) with
            | Some v -> v
            | None ->
                Value.error "warp_bcast from lane %d, which is not live" lane
          in
          List.map (fun (i, _) -> (i, v)) reqs)

(* ------------------------------------------------------------------ *)
(* Static costs                                                        *)
(* ------------------------------------------------------------------ *)

(* Cycles to evaluate [e] once, assuming full evaluation. Short-circuit and
   ternary operators are charged for both sides; this keeps charging O(1)
   per statement at run time. *)
let rec expr_cost (cfg : Config.t) (e : expr) : int =
  let ec = expr_cost cfg in
  match e with
  | Int_lit _ | Float_lit _ | Bool_lit _ | Var _ -> 0
  | Unop (_, a) -> cfg.arith_cost + ec a
  | Binop (_, a, b) -> cfg.arith_cost + ec a + ec b
  | Ternary (c, a, b) -> cfg.branch_cost + ec c + max (ec a) (ec b)
  | Index (p, i) -> cfg.mem_cost + ec p + ec i
  | Member (a, _) -> ec a
  | Cast (_, a) -> cfg.arith_cost + ec a
  | Dim3_ctor (x, y, z) -> cfg.arith_cost + ec x + ec y + ec z
  | Addr_of lv -> addr_cost cfg lv
  | Call (f, args) -> (
      let argc = List.fold_left (fun acc a -> acc + ec a) 0 args in
      match Builtins.find f with
      | Some b ->
          let c =
            match b.b_cost with
            | Builtins.Arith -> cfg.arith_cost
            | Builtins.Mem -> cfg.mem_cost
            | Builtins.Atomic -> cfg.atomic_cost
            | Builtins.Warp_collective -> cfg.warp_collective_cost
            | Builtins.Alloc -> cfg.alloc_cost
          in
          (* atomics evaluate their address operand without the extra load *)
          c + argc
      | None -> cfg.call_cost + argc)

(* Address computation for an lvalue (no load). *)
and addr_cost cfg = function
  | Var _ -> cfg.arith_cost
  | Index (p, i) -> cfg.arith_cost + expr_cost cfg p + expr_cost cfg i
  | Member (a, _) -> cfg.arith_cost + expr_cost cfg a
  | e -> expr_cost cfg e

let has_serial_suffix name =
  let suffix = "_serial" in
  let nl = String.length name and sl = String.length suffix in
  nl >= sl
  &&
  (* "..._serial" or "..._serial_<n>" (fresh-name disambiguation) *)
  (String.sub name (nl - sl) sl = suffix
  ||
  match String.rindex_opt name '_' with
  | Some i when i >= sl ->
      String.sub name (i - sl) sl = suffix
      && int_of_string_opt (String.sub name (i + 1) (nl - i - 1)) <> None
  | _ -> false)
