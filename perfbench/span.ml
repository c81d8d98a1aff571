(** Host-time spans recorded around calls into the program's layers.

    Spans live in memory and are written as Chrome trace-event JSON when
    the run ends (load the file in https://ui.perfetto.dev). A span's
    {e self time} is its duration minus the durations of its direct
    children; the run is single-domain, so children never overlap.

    Recording is off unless {!enable} was called: {!with_} then costs one
    branch, so an untraced run measures the program, not the tracer. *)

type t = {
  id : int;
  name : string;  (** ["<layer>.<call>"], e.g. ["gpusim.run"]. *)
  tag : string;  (** Extra key, e.g. the code version of a run; [""]. *)
  parent : int;  (** Causing span's id; [-1] for a root. *)
  req : int;  (** Cell or request id; [-1] when none. *)
  t0 : float;
  mutable t1 : float;
  mutable children : float;  (** Summed duration of direct children. *)
  mutable alloc_bytes : float;  (** [Gc.allocated_bytes] during the span. *)
}

(** Monotonic host clock, in seconds (nanosecond resolution). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let on = ref false
let spans : t list ref = ref []
let open_stack : t list ref = ref []
let next_id = ref 0
let origin = ref 0.0
let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let enable () =
  on := true;
  origin := now ()

(** [count name v] adds [v] to counter [name] (traced runs only). *)
let count name v =
  if !on then
    Hashtbl.replace counters name
      (v +. Option.value (Hashtbl.find_opt counters name) ~default:0.0)

let counter name = Option.value (Hashtbl.find_opt counters name) ~default:0.0

(** [with_ ?tag ?req name f] runs [f ()] inside a span. The span is closed
    when [f] raises too, and the exception is re-raised. *)
let with_ ?(tag = "") ?req name f =
  if not !on then f ()
  else begin
    let parent, inherited =
      match !open_stack with p :: _ -> (p.id, p.req) | [] -> (-1, -1)
    in
    let s =
      {
        id = !next_id;
        name;
        tag;
        parent;
        req = Option.value req ~default:inherited;
        t0 = now ();
        t1 = nan;
        children = 0.0;
        alloc_bytes = Gc.allocated_bytes ();
      }
    in
    incr next_id;
    open_stack := s :: !open_stack;
    let close () =
      s.t1 <- now ();
      s.alloc_bytes <- Gc.allocated_bytes () -. s.alloc_bytes;
      open_stack := List.tl !open_stack;
      (match !open_stack with
      | p :: _ -> p.children <- p.children +. (s.t1 -. s.t0)
      | [] -> ());
      spans := s :: !spans
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

let duration s = s.t1 -. s.t0
let self_time s = duration s -. s.children

(** [fold f init] folds over the closed spans, oldest first. *)
let fold f init = List.fold_left f init (List.rev !spans)

(** Summed self time of the spans satisfying [p]. *)
let self_sum p = fold (fun acc s -> if p s then acc +. self_time s else acc) 0.0

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(** Write every closed span as a Chrome trace-event ("X" complete event,
    microseconds from {!enable}); the category is the span's layer. *)
let write_chrome path =
  Out_channel.with_open_text path @@ fun oc ->
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  let first = ref true in
  fold
    (fun () s ->
      let layer =
        match String.index_opt s.name '.' with
        | Some i -> String.sub s.name 0 i
        | None -> s.name
      in
      if not !first then output_string oc ",\n";
      first := false;
      Printf.fprintf oc
        "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\
         \"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d,\"tag\":%s,\
         \"self_us\":%.3f,\"alloc_bytes\":%.0f}}"
        (json_string s.name) (json_string layer)
        ((s.t0 -. !origin) *. 1e6)
        (duration s *. 1e6)
        s.id s.parent s.req (json_string s.tag)
        (self_time s *. 1e6)
        s.alloc_bytes)
    ();
  output_string oc "\n]}\n"
