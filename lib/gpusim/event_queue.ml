(** A binary min-heap keyed by (time, sequence number).

    The sequence number makes pops deterministic when events share a
    timestamp: ties resolve in insertion order, which the simulator relies
    on for reproducible runs.

    Slots outside the live prefix [0 .. size - 1] are kept at [None]: both
    {!pop} (the vacated slot) and the growth path clear them, so a popped
    payload — a grid record with its lowered kernel and argument values —
    becomes garbage as soon as the simulator drops it, instead of being
    retained by the heap array for the rest of the run. *)

type 'a entry = float * int * 'a

type 'a t = {
  mutable heap : 'a entry option array;
  mutable size : int;
  mutable seq : int;
}

let create () = { heap = [||]; size = 0; seq = 0 }

let is_empty t = t.size = 0
let length t = t.size

(* Live slots always hold [Some]; only indices >= size are [None]. *)
let get t i =
  match t.heap.(i) with Some e -> e | None -> assert false

let less (t1, s1, _) (t2, s2, _) = t1 < t2 || (t1 = t2 && s1 < s2)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less (get t i) (get t parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && less (get t l) (get t !smallest) then smallest := l;
  if r < t.size && less (get t r) (get t !smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t time v =
  if t.size = Array.length t.heap then begin
    let cap = max 64 (2 * t.size) in
    let bigger = Array.make cap None in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  t.heap.(t.size) <- Some (time, t.seq, v);
  t.seq <- t.seq + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

(** [pop t] removes and returns the earliest event as [(time, value)]. *)
let pop t =
  if t.size = 0 then invalid_arg "Event_queue.pop: empty";
  let time, _, v = get t 0 in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.heap.(0) <- t.heap.(t.size);
    t.heap.(t.size) <- None;
    sift_down t 0
  end
  else t.heap.(0) <- None;
  (time, v)

let peek_time t =
  if t.size = 0 then None
  else
    let time, _, _ = get t 0 in
    Some time
