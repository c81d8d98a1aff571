(* Tests for the simulated device memory and the event queue. *)

open Gpusim

let t name f = Alcotest.test_case name `Quick f

let raises_rte name f =
  t name (fun () ->
      match f () with
      | _ -> Alcotest.fail "expected a runtime error"
      | exception Value.Runtime_error _ -> ())

(* [access_fails name msg setup] pins the exact diagnostic of a bad access
   on every element-access primitive: [setup m] returns the pointer to
   access, and [load], [store] and [atomic_rmw] through it must each raise
   [msg]. *)
let access_fails name msg setup =
  t name (fun () ->
      let expect op f =
        let m = Memory.create () in
        let p = setup m in
        match f m p with
        | _ -> Alcotest.failf "%s: expected a runtime error" op
        | exception Value.Runtime_error got ->
            Alcotest.(check string) op msg got
      in
      expect "load" (fun m p -> ignore (Memory.load m p));
      expect "store" (fun m p -> Memory.store m p (Value.Int 1));
      expect "atomic_rmw" (fun m p ->
          ignore (Memory.atomic_rmw m p (fun v -> v))))

let mem_suite =
  [
    t "alloc and rw" (fun () ->
        let m = Memory.create () in
        let p = Memory.alloc m 4 ~init:(Value.Int 0) in
        Memory.store m { p with off = 2 } (Value.Int 42);
        Alcotest.(check int) "load" 42
          (Value.as_int (Memory.load m { p with off = 2 }));
        Alcotest.(check int) "init" 0 (Value.as_int (Memory.load m p)));
    t "independent buffers" (fun () ->
        let m = Memory.create () in
        let a = Memory.alloc m 2 ~init:(Value.Int 1) in
        let b = Memory.alloc m 2 ~init:(Value.Int 2) in
        Memory.store m a (Value.Int 9);
        Alcotest.(check int) "b untouched" 2 (Value.as_int (Memory.load m b)));
    t "many buffers force table growth" (fun () ->
        let m = Memory.create () in
        let ptrs =
          List.init 200 (fun i -> (i, Memory.alloc m 1 ~init:(Value.Int i)))
        in
        List.iter
          (fun (i, p) ->
            Alcotest.(check int) "value" i (Value.as_int (Memory.load m p)))
          ptrs);
    t "write/read helpers round-trip" (fun () ->
        let m = Memory.create () in
        let p = Memory.alloc m 5 ~init:(Value.Int 0) in
        Memory.write_ints m p [| 1; 2; 3; 4; 5 |];
        Alcotest.(check (array int)) "ints" [| 1; 2; 3; 4; 5 |]
          (Memory.read_ints m p 5);
        let q = Memory.alloc m 3 ~init:(Value.Float 0.) in
        Memory.write_floats m q [| 1.5; 2.5; 3.5 |];
        Alcotest.(check (array (float 0.0))) "floats" [| 1.5; 2.5; 3.5 |]
          (Memory.read_floats m q 3));
    t "size reports buffer length" (fun () ->
        let m = Memory.create () in
        let p = Memory.alloc m 7 ~init:(Value.Int 0) in
        Alcotest.(check int) "size" 7 (Memory.size m p));
    access_fails "out of bounds high"
      "out-of-bounds access: offset 4 in buffer 0 of size 4" (fun m ->
        let p = Memory.alloc m 4 ~init:(Value.Int 0) in
        { p with off = 4 });
    access_fails "out of bounds negative"
      "out-of-bounds access: offset -1 in buffer 0 of size 4" (fun m ->
        let p = Memory.alloc m 4 ~init:(Value.Int 0) in
        { p with off = -1 });
    access_fails "use after free" "use after free (buffer 0)" (fun m ->
        let p = Memory.alloc m 4 ~init:(Value.Int 0) in
        Memory.free m p;
        p);
    raises_rte "double free" (fun () ->
        let m = Memory.create () in
        let p = Memory.alloc m 4 ~init:(Value.Int 0) in
        Memory.free m p;
        Memory.free m p);
    raises_rte "free of interior pointer" (fun () ->
        let m = Memory.create () in
        let p = Memory.alloc m 4 ~init:(Value.Int 0) in
        Memory.free m { p with off = 1 });
    raises_rte "negative allocation" (fun () ->
        let m = Memory.create () in
        Memory.alloc m (-1) ~init:(Value.Int 0));
    t "zero-length allocation is fine until accessed" (fun () ->
        let m = Memory.create () in
        let p = Memory.alloc m 0 ~init:(Value.Int 0) in
        Alcotest.(check int) "size 0" 0 (Memory.size m p));
    access_fails "invalid buffer id" "invalid buffer id 99" (fun _ ->
        { Value.buf = 99; off = 0 });
    (* Large Int/Float-initialized buffers take the unboxed typed-storage
       path; everything observable must match the boxed representation. *)
    t "typed int buffer round-trips and dumps" (fun () ->
        let m = Memory.create () in
        let n = 2048 in
        let p = Memory.alloc m n ~init:(Value.Int 0) in
        Memory.store m { p with off = 7 } (Value.Int 42);
        Memory.store m { p with off = n - 1 } (Value.Int (-5)) ;
        Alcotest.(check int) "load" 42
          (Value.as_int (Memory.load m { p with off = 7 }));
        let dump = List.hd (Memory.dump m ~first:1) in
        Alcotest.(check int) "dump length" n (Array.length dump);
        Alcotest.(check bool) "dump cells" true
          (dump.(7) = Value.Int 42 && dump.(n - 1) = Value.Int (-5)
          && dump.(0) = Value.Int 0);
        Memory.write_ints m p (Array.init n (fun i -> i * 3));
        Alcotest.(check int) "bulk read" (3 * (n - 1))
          (Memory.read_ints m p n).(n - 1));
    t "typed float buffer round-trips and dumps" (fun () ->
        let m = Memory.create () in
        let n = 1536 in
        let p = Memory.alloc m n ~init:(Value.Float 0.5) in
        Memory.store m { p with off = 3 } (Value.Float 2.25);
        Alcotest.(check (float 0.0)) "load" 2.25
          (Value.as_float (Memory.load m { p with off = 3 }));
        let dump = List.hd (Memory.dump m ~first:1) in
        Alcotest.(check bool) "dump cells" true
          (dump.(3) = Value.Float 2.25 && dump.(0) = Value.Float 0.5));
    t "mismatched-type store spills, dump still exact" (fun () ->
        let m = Memory.create () in
        let n = 1024 in
        let p = Memory.alloc m n ~init:(Value.Int 1) in
        (* a Float landing in an int-typed buffer must survive verbatim *)
        Memory.store m { p with off = 100 } (Value.Float 6.75);
        Alcotest.(check (float 0.0)) "spilled load" 6.75
          (Value.as_float (Memory.load m { p with off = 100 }));
        let dump = List.hd (Memory.dump m ~first:1) in
        Alcotest.(check bool) "dump has the spilled value" true
          (dump.(100) = Value.Float 6.75 && dump.(99) = Value.Int 1);
        (* overwriting with the native type heals the cell *)
        Memory.store m { p with off = 100 } (Value.Int 8);
        Alcotest.(check int) "healed" 8
          (Value.as_int (Memory.load m { p with off = 100 }));
        let arr = Memory.read_array m p n in
        Alcotest.(check bool) "bulk read sees healed cell" true
          (arr.(100) = Value.Int 8));
  ]

let eq_suite =
  [
    t "pops in time order" (fun () ->
        let q = Event_queue.create () in
        Event_queue.push q 3.0 "c";
        Event_queue.push q 1.0 "a";
        Event_queue.push q 2.0 "b";
        let order = List.init 3 (fun _ -> snd (Event_queue.pop q)) in
        Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] order);
    t "ties resolve in insertion order" (fun () ->
        let q = Event_queue.create () in
        List.iteri (fun i v -> Event_queue.push q (if i = 1 then 0.0 else 0.0) v)
          [ "x"; "y"; "z" ];
        let order = List.init 3 (fun _ -> snd (Event_queue.pop q)) in
        Alcotest.(check (list string)) "fifo ties" [ "x"; "y"; "z" ] order);
    t "is_empty and length" (fun () ->
        let q = Event_queue.create () in
        Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
        Event_queue.push q 1.0 ();
        Alcotest.(check int) "len" 1 (Event_queue.length q);
        ignore (Event_queue.pop q);
        Alcotest.(check bool) "empty again" true (Event_queue.is_empty q));
    t "peek_time" (fun () ->
        let q = Event_queue.create () in
        Alcotest.(check (option (float 0.))) "none" None (Event_queue.peek_time q);
        Event_queue.push q 5.0 ();
        Event_queue.push q 2.0 ();
        Alcotest.(check (option (float 0.))) "min" (Some 2.0)
          (Event_queue.peek_time q));
    t "pop on empty raises" (fun () ->
        let q : unit Event_queue.t = Event_queue.create () in
        match Event_queue.pop q with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300 ~name:"heap sorts any float list"
         QCheck.(list (float_bound_inclusive 1000.0))
         (fun xs ->
           let q = Event_queue.create () in
           List.iter (fun x -> Event_queue.push q x x) xs;
           let out = List.init (List.length xs) (fun _ -> fst (Event_queue.pop q)) in
           out = List.sort compare xs));
  ]

let value_suite =
  [
    t "int coercions" (fun () ->
        Alcotest.(check int) "bool true" 1 (Value.as_int (Value.Bool true));
        Alcotest.(check int) "float trunc" 3 (Value.as_int (Value.Float 3.9));
        Alcotest.(check int) "neg float trunc" (-3)
          (Value.as_int (Value.Float (-3.9))));
    t "float coercions" (fun () ->
        Alcotest.(check (float 0.)) "int" 4.0 (Value.as_float (Value.Int 4)));
    t "bool coercions" (fun () ->
        Alcotest.(check bool) "nonzero" true (Value.as_bool (Value.Int 5));
        Alcotest.(check bool) "zero" false (Value.as_bool (Value.Int 0));
        Alcotest.(check bool) "float zero" false (Value.as_bool (Value.Float 0.0)));
    t "as_dim3 accepts ints" (fun () ->
        Alcotest.(check (triple int int int)) "int" (7, 1, 1)
          (Value.as_dim3 (Value.Int 7));
        Alcotest.(check (triple int int int)) "dim3" (1, 2, 3)
          (Value.as_dim3 (Value.Dim3 (1, 2, 3))));
    raises_rte "as_ptr on int" (fun () -> Value.as_ptr (Value.Int 3));
    raises_rte "as_int on ptr" (fun () ->
        Value.as_int (Value.Ptr { buf = 0; off = 0 }));
  ]

(* Appended after the other suites so the earlier tests keep their
   indices. *)
let typed_suite =
  [
    access_fails "out of bounds in a typed buffer"
      "out-of-bounds access: offset 2048 in buffer 1 of size 2048" (fun m ->
        ignore (Memory.alloc m 8 ~init:(Value.Int 0));
        let p = Memory.alloc m 2048 ~init:(Value.Float 0.0) in
        { p with off = 2048 });
  ]

let suite = mem_suite @ eq_suite @ value_suite @ typed_suite
