(** The code-version axes of the paper's evaluation (Section VII): which
    optimizations are enabled, and with which tuning parameters. *)

type t = Benchmarks.Bench_common.variant =
  | No_cdp
  | Cdp of Dpopt.Pipeline.options

let label = function
  | No_cdp -> "No CDP"
  | Cdp opts -> Dpopt.Pipeline.label opts

(** Which of T/C/A a combination enables (the paper's Fig. 9 x-axis). *)
type combo = { t : bool; c : bool; a : bool }

let combo_label c =
  if not (c.t || c.c || c.a) then "CDP"
  else
    "CDP+"
    ^ String.concat "+"
        (List.filter_map Fun.id
           [
             (if c.t then Some "T" else None);
             (if c.c then Some "C" else None);
             (if c.a then Some "A" else None);
           ])

(** All eight T/C/A combinations, in the paper's Fig. 9 order. *)
let all_combos =
  [
    { t = false; c = false; a = false };
    { t = true; c = false; a = false };
    { t = false; c = true; a = false };
    { t = false; c = false; a = true };
    { t = true; c = true; a = false };
    { t = true; c = false; a = true };
    { t = false; c = true; a = true };
    { t = true; c = true; a = true };
  ]

(** Tuning parameters for one concrete run. *)
type params = {
  threshold : int;
  cfactor : int;
  granularity : Dpopt.Aggregation.granularity;
  agg_threshold : int option;
}

let default_params =
  {
    threshold = 64;
    cfactor = 8;
    granularity = Dpopt.Aggregation.Block;
    agg_threshold = None;
  }

let pp_params ppf p =
  Fmt.pf ppf "thr=%d cf=%d gran=%a" p.threshold p.cfactor
    Dpopt.Aggregation.pp_granularity p.granularity

(** Instantiate a combination with parameters. *)
let instantiate (c : combo) (p : params) : t =
  Cdp
    (Dpopt.Pipeline.make
       ?threshold:(if c.t then Some p.threshold else None)
       ?cfactor:(if c.c then Some p.cfactor else None)
       ?granularity:(if c.a then Some p.granularity else None)
       ?agg_threshold:(if c.a then p.agg_threshold else None)
       ())

(** All eight combinations instantiated at [params], with their labels, in
    the Fig. 9 order of {!all_combos}. The head is the untransformed
    ["CDP"] baseline. *)
let power_set ?(params = default_params) () : (string * t) list =
  List.map (fun c -> (combo_label c, instantiate c params)) all_combos
