(* Tests for the Michael–Scott queue: FIFO semantics, batch splicing,
   multi-domain stress including per-producer order preservation. *)

module Q = Lockfree.Ms_queue

let test_fifo () =
  let q = Q.create () in
  Alcotest.(check bool) "empty" true (Q.is_empty q);
  Alcotest.(check (option int)) "deq empty" None (Q.dequeue q);
  Q.enqueue q 1;
  Q.enqueue q 2;
  Q.enqueue q 3;
  Alcotest.(check (option int)) "peek" (Some 1) (Q.peek q);
  Alcotest.(check (option int)) "deq 1" (Some 1) (Q.dequeue q);
  Alcotest.(check (option int)) "deq 2" (Some 2) (Q.dequeue q);
  Q.enqueue q 4;
  Alcotest.(check (option int)) "deq 3" (Some 3) (Q.dequeue q);
  Alcotest.(check (option int)) "deq 4" (Some 4) (Q.dequeue q);
  Alcotest.(check bool) "empty again" true (Q.is_empty q)

let test_enqueue_list () =
  let q = Q.create () in
  Q.enqueue_list q [];
  Alcotest.(check bool) "noop on []" true (Q.is_empty q);
  Q.enqueue_list q [ 1; 2; 3 ];
  Q.enqueue_list q [ 4; 5 ];
  Alcotest.(check (list int)) "oldest-first" [ 1; 2; 3; 4; 5 ] (Q.to_list q);
  Alcotest.(check int) "length" 5 (Q.length q)

let test_dequeue_many () =
  let q = Q.create () in
  Q.enqueue_list q [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "deq 0" [] (Q.dequeue_many q 0);
  Alcotest.(check (list int)) "deq 2" [ 1; 2 ] (Q.dequeue_many q 2);
  Alcotest.(check (list int)) "deq beyond" [ 3; 4; 5 ] (Q.dequeue_many q 10);
  Alcotest.(check (list int)) "deq empty" [] (Q.dequeue_many q 3);
  Alcotest.check_raises "negative"
    (Invalid_argument "Ms_queue.dequeue_many: negative count") (fun () ->
      ignore (Q.dequeue_many q (-1)))

let test_interleaved_batch_single () =
  let q = Q.create () in
  Q.enqueue q 1;
  Q.enqueue_list q [ 2; 3 ];
  Q.enqueue q 4;
  Alcotest.(check (list int)) "mixed" [ 1; 2; 3; 4 ] (Q.to_list q)

(* FIFO per producer: values from one producer must be dequeued in the
   order that producer enqueued them. *)
let test_parallel_per_producer_order () =
  let q = Q.create () in
  let producers = 3 and per_producer = 800 in
  let consumer_count = 2 in
  let produced = producers * per_producer in
  let taken = Atomic.make 0 in
  let consumed : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let consumed_lock = Sync.Spinlock.create () in
  let producer i () =
    for n = 1 to per_producer do
      (* encode producer in high bits, sequence in low bits *)
      Q.enqueue q ((i * 1_000_000) + n)
    done
  in
  let consumer () =
    let mine = ref [] in
    let rec loop () =
      if Atomic.get taken < produced then begin
        (match Q.dequeue q with
        | Some v ->
            Atomic.incr taken;
            mine := v :: !mine
        | None ->
            (* On a single-core host a pure spin starves the producers;
               sleep so they get the CPU. *)
            Unix.sleepf 1e-5);
        loop ()
      end
    in
    loop ();
    Sync.Spinlock.with_lock consumed_lock (fun () ->
        Hashtbl.add consumed (Hashtbl.length consumed) (List.rev !mine))
  in
  let ds =
    List.init producers (fun i -> Domain.spawn (producer i))
    @ List.init consumer_count (fun _ -> Domain.spawn consumer)
  in
  List.iter Domain.join ds;
  (* Within each consumer's log, each producer's values appear in
     increasing sequence order. *)
  let ok = ref true in
  Hashtbl.iter
    (fun _ log ->
      let last = Hashtbl.create 8 in
      List.iter
        (fun v ->
          let p = v / 1_000_000 and n = v mod 1_000_000 in
          (match Hashtbl.find_opt last p with
          | Some m when m >= n -> ok := false
          | _ -> ());
          Hashtbl.replace last p n)
        log)
    consumed;
  Alcotest.(check bool) "per-producer FIFO respected" true !ok;
  Alcotest.(check int) "all consumed" produced (Atomic.get taken);
  Alcotest.(check bool) "queue drained" true (Q.is_empty q)

let test_parallel_batch_conservation () =
  let q = Q.create () in
  let domains = 4 and batches = 400 and batch_size = 16 in
  let popped = Array.make domains 0 in
  let worker i () =
    let count = ref 0 in
    for b = 1 to batches do
      if i land 1 = 0 then
        Q.enqueue_list q
          (List.init batch_size (fun j -> (i * 1_000_000) + (b * 100) + j))
      else count := !count + List.length (Q.dequeue_many q batch_size)
    done;
    popped.(i) <- !count
  in
  let ds = List.init domains (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join ds;
  let enqueued = 2 * batches * batch_size in
  let dequeued = Array.fold_left ( + ) 0 popped in
  Alcotest.(check int) "enqueued = dequeued + remaining" enqueued
    (dequeued + Q.length q)

(* A batch spliced by enqueue_list must appear contiguously and in order:
   no other producer's elements can interleave inside it, because the
   whole chain is linked with one CAS. *)
let test_parallel_batch_contiguity () =
  let q = Q.create () in
  let producers = 3 and batches = 300 and batch_size = 5 in
  let producer i () =
    for b = 0 to batches - 1 do
      Q.enqueue_list q
        (List.init batch_size (fun j -> (i * 1_000_000) + (b * 100) + j))
    done
  in
  let ds = List.init producers (fun i -> Domain.spawn (producer i)) in
  List.iter Domain.join ds;
  (* Single-threaded drain; check every batch appears as a contiguous
     run. *)
  let all = Q.to_list q in
  Alcotest.(check int) "everything arrived"
    (producers * batches * batch_size)
    (List.length all);
  let rec check_runs = function
    | [] -> ()
    | v :: rest ->
        let j = v mod 100 in
        if j <> 0 then Alcotest.fail "batch does not start at its head";
        let rec eat expect rest =
          if expect = batch_size then rest
          else
            match rest with
            | w :: rest' when w = v + expect -> eat (expect + 1) rest'
            | _ -> Alcotest.fail "batch interleaved or out of order"
        in
        check_runs (eat 1 rest)
  in
  check_runs all

(* A delivered node's value is overwritten by a private sentinel block so
   the new dummy does not pin it; readers racing the delivery must never
   hand that sentinel out. One domain enqueues consecutive ints and
   dequeues them with [dequeue_seg] in batches of 1-8, keeping the exact
   list model, while this domain keeps calling [peek] and [to_list]. A
   head only moves forward, so every [peek] must see an enqueued value no
   older than the last one seen, and every [to_list] an ascending run of
   enqueued values. At quiescence [to_list] equals the model. *)
let test_peek_races_dequeue_seg () =
  let q = Q.create () in
  let rounds = 20_000 in
  let next = Atomic.make 0 and finished = Atomic.make false in
  let consumer () =
    let model = Queue.create () and rng = Random.State.make [| 17 |] in
    for _ = 1 to rounds do
      let base = Atomic.get next in
      let k = 1 + Random.State.int rng 8 in
      Atomic.set next (base + k);
      Q.enqueue_seg q ~n:k ~get:(fun i -> base + i);
      for i = 0 to k - 1 do
        Queue.push (base + i) model
      done;
      let m = 1 + Random.State.int rng 8 in
      let got = Q.dequeue_seg q ~n:m ~f:(fun _ v ->
        if v <> Queue.pop model then Alcotest.fail "dequeue out of order")
      in
      if got <> min m (got + Queue.length model) then
        Alcotest.fail "dequeue_seg stopped early"
    done;
    Atomic.set finished true;
    List.of_seq (Queue.to_seq model)
  in
  let d = Domain.spawn consumer in
  let enqueued v = v >= 0 && v < Atomic.get next in
  let last = ref 0 and iters = ref 0 in
  while not (Atomic.get finished) do
    incr iters;
    (match Q.peek q with
    | Some v ->
        if not (enqueued v) then Alcotest.failf "peek returned %d" v;
        if v < !last then Alcotest.failf "peek went back: %d after %d" v !last;
        last := v
    | None -> ());
    if !iters land 63 = 0 then begin
      let l = Q.to_list q in
      if not (List.for_all enqueued l) then
        Alcotest.fail "to_list returned a value never enqueued";
      ignore
        (List.fold_left
           (fun prev v ->
             if v <= prev then Alcotest.fail "to_list not ascending";
             v)
           (-1) l)
    end
  done;
  let model = Domain.join d in
  Alcotest.(check (list int)) "to_list at quiescence" model (Q.to_list q)

let prop_model =
  QCheck.Test.make ~name:"ms_queue matches list model (sequential)"
    ~count:300
    QCheck.(list (pair (int_bound 3) (list small_int)))
    (fun script ->
      let q = Q.create () in
      let model = ref [] in
      List.for_all
        (fun (kind, args) ->
          match kind with
          | 0 ->
              let v = match args with v :: _ -> v | [] -> 0 in
              Q.enqueue q v;
              model := !model @ [ v ];
              true
          | 1 ->
              let expected =
                match !model with
                | [] -> None
                | x :: rest ->
                    model := rest;
                    Some x
              in
              Q.dequeue q = expected
          | 2 ->
              Q.enqueue_list q args;
              model := !model @ args;
              true
          | _ ->
              let n = List.length args in
              let rec take k l =
                if k = 0 then ([], l)
                else
                  match l with
                  | [] -> ([], [])
                  | x :: rest ->
                      let t, l' = take (k - 1) rest in
                      (x :: t, l')
              in
              let expected, rest = take n !model in
              model := rest;
              Q.dequeue_many q n = expected)
        script
      && Q.to_list q = !model)

(* The ring-buffer paths: [enqueue_seg] builds its chain newest-first and
   [dequeue_seg] hands values out after its head CAS; both must agree
   with a FIFO model, counts included. *)
let prop_seg_model =
  QCheck.Test.make ~name:"ms_queue seg ops match list model" ~count:300
    QCheck.(small_list (pair bool (small_list small_int)))
    (fun script ->
      let q = Q.create () and model = Queue.create () in
      List.for_all
        (fun (enq, args) ->
          if enq then begin
            let a = Array.of_list args in
            Q.enqueue_seg q ~n:(Array.length a) ~get:(Array.get a);
            List.iter (fun v -> Queue.push v model) args;
            true
          end
          else
            let n = List.length args in
            let expected =
              List.init (min n (Queue.length model)) (fun _ -> Queue.pop model)
            in
            let got = ref [] and in_order = ref true in
            let k =
              Q.dequeue_seg q ~n ~f:(fun i v ->
                  if i <> List.length !got then in_order := false;
                  got := v :: !got)
            in
            !in_order && k = List.length expected && List.rev !got = expected)
        script
      && Q.to_list q = List.of_seq (Queue.to_seq model))

let () =
  Alcotest.run "lockfree-queue"
    [
      ( "sequential",
        [
          Alcotest.test_case "fifo" `Quick test_fifo;
          Alcotest.test_case "enqueue_list" `Quick test_enqueue_list;
          Alcotest.test_case "dequeue_many" `Quick test_dequeue_many;
          Alcotest.test_case "mixed batch/single" `Quick
            test_interleaved_batch_single;
          QCheck_alcotest.to_alcotest prop_model;
          QCheck_alcotest.to_alcotest prop_seg_model;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "per-producer order (5 domains)" `Slow
            test_parallel_per_producer_order;
          Alcotest.test_case "batch conservation (4 domains)" `Slow
            test_parallel_batch_conservation;
          Alcotest.test_case "peek races dequeue_seg (2 domains)" `Quick
            test_peek_races_dequeue_seg;
          Alcotest.test_case "batch contiguity (3 domains)" `Slow
            test_parallel_batch_contiguity;
        ] );
    ]
