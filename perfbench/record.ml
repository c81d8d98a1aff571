(** What a measured phase produces: every operation attempted, whether its
    output was correct, and its latency, classed cold (first time this
    process performs that operation) or warm (a repeat). *)

type t = {
  pins : Pins.t option;
  write_pins : bool;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** First few, for stderr. *)
  mutable cold : float list;  (** Seconds, newest first. *)
  mutable warm : float list;
  outputs : Buffer.t;  (** ["key\toutput\n"] per operation, in order. *)
  mutable pinned : (string * string) list;  (** Reversed. *)
}

let create ?pins ?(write_pins = false) () =
  {
    pins;
    write_pins;
    attempted = 0;
    failed = 0;
    failures = [];
    cold = [];
    warm = [];
    outputs = Buffer.create 4096;
    pinned = [];
  }

(** Keep [why] for stderr without counting a failure. *)
let note t why = if List.length t.failures < 5 then t.failures <- why :: t.failures

let fail t why =
  t.failed <- t.failed + 1;
  note t why

(** [op t ~key ~output ~ok ~latency ~warm] records one operation. [ok] is
    the workload's own check (e.g. against a reference); the pin, when
    present, is checked here. *)
let op t ~key ~output ~ok ~latency ~warm =
  t.attempted <- t.attempted + 1;
  Printf.bprintf t.outputs "%s\t%s\n" key output;
  if t.write_pins then t.pinned <- (key, output) :: t.pinned;
  if not ok then fail t (key ^ ": wrong output " ^ output)
  else if not (Pins.matches t.pins key output) then
    fail t (key ^ ": differs from pin: " ^ output);
  if warm then t.warm <- latency :: t.warm else t.cold <- latency :: t.cold

(** An operation that raised [e]: failed, its output the exception's
    name. *)
let raised t ~key ~latency ~warm e =
  op t ~key ~output:("raised " ^ Printexc.exn_slot_name e) ~ok:false ~latency ~warm;
  note t (key ^ ": " ^ Printexc.to_string e)

let outputs_digest t = Digest.to_hex (Digest.string (Buffer.contents t.outputs))
