(** A backend-neutral host driver: the list of device operations a
    benchmark's host side performs, as data.

    The same spec is executed on both backends — {!run_sim} drives a
    {!Gpusim.Device} and {!Emit.unit_source} generates the equivalent
    OCaml driver against {!Nrt} — so a native-vs-simulator dump
    comparison exercises identical allocation orders, launch
    configurations and argument lists on both sides. Buffer ids are
    positional: [A_buf i] refers to the [i]-th allocation op. *)

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

(** [run_sim ~cfg prog ~auto_params spec] — execute the spec against a
    fresh simulator and snapshot the driver buffers. May raise whatever
    the simulator raises. *)
let run_sim ~cfg (prog : Minicu.Ast.program)
    ~(auto_params : (string * Dpopt.Aggregation.auto_param list) list)
    (spec : t) : Gpusim.Value.t array list =
  let dev = Gpusim.Device.create ~cfg () in
  Gpusim.Device.load_program dev prog ~auto_params;
  let bufs = ref [] in
  (* allocation-order list, head = latest *)
  let nth_buf i =
    match List.nth_opt (List.rev !bufs) i with
    | Some p -> p
    | None -> invalid_arg (Fmt.str "Hostspec: A_buf %d out of range" i)
  in
  List.iter
    (fun op ->
      match op with
      | Alloc_ints vs -> bufs := Gpusim.Device.alloc_ints dev vs :: !bufs
      | Alloc_floats vs -> bufs := Gpusim.Device.alloc_floats dev vs :: !bufs
      | Alloc_int_zeros n ->
          bufs := Gpusim.Device.alloc_int_zeros dev n :: !bufs
      | Alloc_float_zeros n ->
          bufs := Gpusim.Device.alloc_float_zeros dev n :: !bufs
      | Launch { kernel; grid; block; args } ->
          let args =
            List.map
              (function
                | A_buf i -> Gpusim.Value.Ptr (nth_buf i)
                | A_int n -> Gpusim.Value.Int n
                | A_float f -> Gpusim.Value.Float f)
              args
          in
          Gpusim.Device.launch dev ~kernel ~grid ~block ~args
      | Sync -> ignore (Gpusim.Device.sync dev))
    spec.ops;
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
