(** A backend-neutral host driver: the list of device operations a
    benchmark's host side performs, as data.

    The same spec is executed on both backends — {!exec} drives a
    {!Gpusim.Device} and {!Emit.unit_source} generates the equivalent
    OCaml driver against {!Nrt} — so a native-vs-simulator dump
    comparison exercises identical allocation orders, launch
    configurations and argument lists on both sides. It is the only host
    driver of every static benchmark and of the differential-testing
    oracle, so the simulated runs are the runs the native check compares.
    Buffer ids are positional: [A_buf i] refers to the [i]-th allocation
    op. *)

type arg = A_buf of int | A_int of int | A_float of float

type op =
  | Alloc_ints of int array
  | Alloc_floats of float array
  | Alloc_int_zeros of int
  | Alloc_float_zeros of int
  | Launch of {
      kernel : string;
      grid : int * int * int;
      block : int * int * int;
      args : arg list;
    }
  | Sync

type t = { ops : op list }

(** Number of driver allocations — the [~first] bound of both backends'
    dumps. All allocation ops must precede the first launch so driver
    buffer ids are dense from 0 on both backends (the simulator allocates
    aggregation auto-buffers at launch time, after them). *)
let user_buffers t =
  List.length
    (List.filter (function Launch _ | Sync -> false | _ -> true) t.ops)

(** [exec dev spec] performs the spec's ops on [dev], whose program is
    already loaded, and returns the driver buffers in allocation order.
    May raise whatever the simulator raises. *)
let exec dev (spec : t) : Gpusim.Value.ptr array =
  let bufs =
    Array.make (user_buffers spec) { Gpusim.Value.buf = -1; off = 0 }
  in
  let n = ref 0 in
  let alloc p =
    bufs.(!n) <- p;
    incr n
  in
  let buf i =
    if i < 0 || i >= !n then
      invalid_arg (Fmt.str "Hostspec: A_buf %d out of range" i);
    bufs.(i)
  in
  List.iter
    (function
      | Alloc_ints vs -> alloc (Gpusim.Device.alloc_ints dev vs)
      | Alloc_floats vs -> alloc (Gpusim.Device.alloc_floats dev vs)
      | Alloc_int_zeros n -> alloc (Gpusim.Device.alloc_int_zeros dev n)
      | Alloc_float_zeros n -> alloc (Gpusim.Device.alloc_float_zeros dev n)
      | Launch { kernel; grid; block; args } ->
          let args =
            List.map
              (function
                | A_buf i -> Gpusim.Value.Ptr (buf i)
                | A_int n -> Gpusim.Value.Int n
                | A_float f -> Gpusim.Value.Float f)
              args
          in
          Gpusim.Device.launch dev ~kernel ~grid ~block ~args
      | Sync -> ignore (Gpusim.Device.sync dev))
    spec.ops;
  bufs

(** [run_sim ~cfg prog ~auto_params spec] — {!exec} the spec on a fresh
    simulator and snapshot the driver buffers. *)
let run_sim ~cfg (prog : Minicu.Ast.program)
    ~(auto_params : (string * Dpopt.Aggregation.auto_param list) list)
    (spec : t) : Gpusim.Value.t array list =
  let dev = Gpusim.Device.create ~cfg () in
  Gpusim.Device.load_program dev prog ~auto_params;
  ignore (exec dev spec);
  Gpusim.Device.dump_memory dev ~first:(user_buffers spec)

(** {1 Canonical dump rendering}

    The same grammar as {!Nrt.render_dump} — one line per buffer, one
    bit-exact cell per value (floats as IEEE-bit hex) — so text equality
    of a native run against a simulator run is bit equality of memory. *)

let render_cell = function
  | Gpusim.Value.Unit -> "u"
  | Gpusim.Value.Int n -> "i" ^ string_of_int n
  | Gpusim.Value.Float f -> Printf.sprintf "f%Lx" (Int64.bits_of_float f)
  | Gpusim.Value.Bool true -> "b1"
  | Gpusim.Value.Bool false -> "b0"
  | Gpusim.Value.Dim3 (x, y, z) -> Printf.sprintf "d%d,%d,%d" x y z
  | Gpusim.Value.Ptr p -> Printf.sprintf "p%d+%d" p.buf p.off

let render_dump (bufs : Gpusim.Value.t array list) : string =
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
