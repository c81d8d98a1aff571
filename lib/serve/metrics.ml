type stage_counters = { hits : int; misses : int }

(* A stage's live counters: found once per probe, bumped in place. *)
type counter = { mutable c_hits : int; mutable c_misses : int }

type t = {
  lock : Mutex.t;
  stages : (string, counter) Hashtbl.t;
  mutable latencies : float list;  (** Seconds, most recent first. *)
  mutable requests : int;
}

let create () =
  {
    lock = Mutex.create ();
    stages = Hashtbl.create 16;
    latencies = [];
    requests = 0;
  }

(* Nothing between lock and unlock can raise. *)
let lookup t ~stage ~hit =
  Mutex.lock t.lock;
  let c =
    match Hashtbl.find t.stages stage with
    | c -> c
    | exception Not_found ->
        let c = { c_hits = 0; c_misses = 0 } in
        Hashtbl.add t.stages stage c;
        c
  in
  if hit then c.c_hits <- c.c_hits + 1 else c.c_misses <- c.c_misses + 1;
  Mutex.unlock t.lock

let latency t dt =
  Mutex.protect t.lock (fun () ->
      t.latencies <- dt :: t.latencies;
      t.requests <- t.requests + 1)

type snapshot = {
  stages : (string * stage_counters) list;
  lookups : int;
  hit_rate : float;
  requests : int;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
}

let snapshot t =
  let stages, lats, requests =
    Mutex.protect t.lock (fun () ->
        ( Hashtbl.fold
            (fun k c acc -> (k, { hits = c.c_hits; misses = c.c_misses }) :: acc)
            t.stages [],
          t.latencies,
          t.requests ))
  in
  let stages =
    List.sort (fun (a, _) (b, _) -> String.compare a b) stages
  in
  let hits, lookups =
    List.fold_left
      (fun (h, n) (_, c) -> (h + c.hits, n + c.hits + c.misses))
      (0, 0) stages
  in
  let ms = List.map (fun s -> s *. 1000.0) lats in
  let pct p = Harness.Stats.percentile ms p in
  {
    stages;
    lookups;
    hit_rate =
      (if lookups = 0 then nan else float_of_int hits /. float_of_int lookups);
    requests;
    p50_ms = pct 0.50;
    p90_ms = pct 0.90;
    p99_ms = pct 0.99;
  }

(* JSON has no nan/infinity; render those as null. *)
let num f =
  if Float.is_nan f || Float.abs f = infinity then "null"
  else Fmt.str "%.6g" f

let json ?(extra = []) s =
  let b = Buffer.create 512 in
  Buffer.add_char b '{';
  let first = ref true in
  let field k v =
    if not !first then Buffer.add_string b ", ";
    first := false;
    Buffer.add_string b (Fmt.str "%S: %s" k v)
  in
  List.iter (fun (k, v) -> field k v) extra;
  field "lookups" (string_of_int s.lookups);
  field "hit_rate" (num s.hit_rate);
  field "requests" (string_of_int s.requests);
  field "p50_ms" (num s.p50_ms);
  field "p90_ms" (num s.p90_ms);
  field "p99_ms" (num s.p99_ms);
  let stage_obj (name, c) =
    Fmt.str "%S: {\"hits\": %d, \"misses\": %d}" name c.hits c.misses
  in
  field "stages"
    ("{" ^ String.concat ", " (List.map stage_obj s.stages) ^ "}");
  Buffer.add_char b '}';
  Buffer.contents b
