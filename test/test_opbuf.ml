(* Tests for the preallocated ring buffer behind the FL pending windows:
   model-based qcheck properties exercising wraparound and growth, unit
   tests for the window operations, allocation budgets on every FL
   handle's flush path, and the Slack drain reentrancy regression. *)

module B = Fl.Opbuf

(* ------------------------- unit: basics ----------------------------- *)

let test_basics () =
  let b = B.create () in
  Alcotest.(check bool) "empty" true (B.is_empty b);
  Alcotest.(check int) "len 0" 0 (B.length b);
  for i = 1 to 5 do
    B.push b i
  done;
  Alcotest.(check int) "len 5" 5 (B.length b);
  Alcotest.(check int) "get 0 oldest" 1 (B.get b 0);
  Alcotest.(check int) "get 4 newest" 5 (B.get b 4);
  Alcotest.(check (list int)) "to_list oldest first" [ 1; 2; 3; 4; 5 ]
    (B.to_list b);
  Alcotest.(check int) "pop_back newest" 5 (B.pop_back b);
  B.drop_front b 2;
  Alcotest.(check (list int)) "after drop_front" [ 3; 4 ] (B.to_list b);
  B.set b 0 30;
  Alcotest.(check (list int)) "after set" [ 30; 4 ] (B.to_list b);
  B.clear b;
  Alcotest.(check bool) "cleared" true (B.is_empty b)

let test_bounds () =
  let b = B.create () in
  B.push b 1;
  Alcotest.check_raises "get out of range"
    (Invalid_argument "Opbuf.get: index out of range") (fun () ->
      ignore (B.get b 1));
  Alcotest.check_raises "pop_back empty"
    (Invalid_argument "Opbuf.pop_back: empty") (fun () ->
      ignore (B.pop_back (B.create () : int B.t)));
  Alcotest.check_raises "drop_front beyond"
    (Invalid_argument "Opbuf.drop_front: bad count") (fun () ->
      B.drop_front b 2)

(* Growth across the initial capacity, with a head offset so the unroll
   path (wrapped ring -> rebased array) is exercised. *)
let test_growth_wrapped () =
  let b = B.create ~capacity:4 () in
  (* Offset the head: push then drop so head <> 0. *)
  for i = 0 to 2 do
    B.push b i
  done;
  B.drop_front b 3;
  (* Now fill past the physical end and through several doublings. *)
  let n = 100 in
  for i = 0 to n - 1 do
    B.push b i
  done;
  Alcotest.(check int) "length" n (B.length b);
  Alcotest.(check (list int)) "order preserved across growth"
    (List.init n Fun.id) (B.to_list b);
  Alcotest.(check bool) "capacity grew" true (B.capacity b >= n)

let test_iter_orders () =
  let b = B.create ~capacity:2 () in
  for i = 1 to 6 do
    B.push b i
  done;
  let fwd = ref [] and bwd = ref [] in
  B.iter (fun x -> fwd := x :: !fwd) b;
  B.rev_iter (fun x -> bwd := x :: !bwd) b;
  Alcotest.(check (list int)) "iter oldest first" [ 1; 2; 3; 4; 5; 6 ]
    (List.rev !fwd);
  Alcotest.(check (list int)) "rev_iter newest first" [ 6; 5; 4; 3; 2; 1 ]
    (List.rev !bwd)

let test_truncate_swap () =
  let a = B.create () and b = B.create () in
  for i = 1 to 8 do
    B.push a i
  done;
  B.truncate a 3;
  Alcotest.(check (list int)) "truncate keeps oldest" [ 1; 2; 3 ]
    (B.to_list a);
  B.push b 99;
  B.swap a b;
  Alcotest.(check (list int)) "swap a" [ 99 ] (B.to_list a);
  Alcotest.(check (list int)) "swap b" [ 1; 2; 3 ] (B.to_list b)

(* ------------------------ unit: tombstones --------------------------- *)

let test_tombstones_basic () =
  let b = B.create () in
  for i = 1 to 5 do
    B.push b i
  done;
  B.delete b 1;
  B.delete b 3;
  Alcotest.(check bool) "deleted flagged" true (B.deleted b 1);
  Alcotest.(check bool) "live slot not flagged" false (B.deleted b 0);
  Alcotest.(check int) "length keeps logical indices" 5 (B.length b);
  Alcotest.(check int) "live counts survivors" 3 (B.live b);
  Alcotest.(check (list int)) "to_list skips tombstones" [ 1; 3; 5 ]
    (B.to_list b);
  Alcotest.check_raises "get on deleted slot"
    (Invalid_argument "Opbuf.get: deleted slot") (fun () ->
      ignore (B.get b 1));
  Alcotest.(check int) "neighbours untouched" 3 (B.get b 2);
  let fwd = ref [] in
  B.iter (fun x -> fwd := x :: !fwd) b;
  Alcotest.(check (list int)) "iter skips tombstones" [ 1; 3; 5 ]
    (List.rev !fwd)

let test_tombstones_compact () =
  let b = B.create ~capacity:4 () in
  (* Offset head so compaction crosses the ring's physical wrap. *)
  for i = 0 to 2 do
    B.push b i
  done;
  B.drop_front b 3;
  for i = 1 to 7 do
    B.push b i
  done;
  B.delete b 0;
  B.delete b 2;
  B.delete b 6;
  Alcotest.(check int) "compact returns survivors" 4 (B.compact b);
  Alcotest.(check int) "length shrank" 4 (B.length b);
  Alcotest.(check (list int)) "order preserved" [ 2; 4; 5; 6 ] (B.to_list b);
  (* Survivors are real elements again: indexable, poppable. *)
  Alcotest.(check int) "get 0" 2 (B.get b 0);
  Alcotest.(check int) "pop_back" 6 (B.pop_back b);
  (* Compacting a clean buffer is the identity. *)
  Alcotest.(check int) "idempotent" 3 (B.compact b);
  Alcotest.(check (list int)) "unchanged" [ 2; 4; 5 ] (B.to_list b)

let test_tombstones_pop_back_skips () =
  let b = B.create () in
  for i = 1 to 4 do
    B.push b i
  done;
  B.delete b 3;
  B.delete b 2;
  Alcotest.(check int) "pop_back skips trailing tombstones" 2 (B.pop_back b);
  Alcotest.(check int) "length consumed the tombstones" 1 (B.length b);
  B.delete b 0;
  Alcotest.check_raises "all-tombstone buffer pops empty"
    (Invalid_argument "Opbuf.pop_back: empty") (fun () ->
      ignore (B.pop_back b))

let test_tombstones_parallel_rings () =
  (* The weak-stack flush discipline: two index-aligned rings, a cancelled
     op tombstoned at the same index in both, then both compacted — the
     pairing of survivors must be preserved. *)
  let vals = B.create () and tags = B.create () in
  for i = 1 to 6 do
    B.push vals (i * 10);
    B.push tags (Printf.sprintf "t%d" i)
  done;
  List.iter
    (fun i ->
      B.delete vals i;
      B.delete tags i)
    [ 1; 4 ];
  Alcotest.(check int) "vals compact" 4 (B.compact vals);
  Alcotest.(check int) "tags compact" 4 (B.compact tags);
  for i = 0 to B.length vals - 1 do
    let v = B.get vals i and tag = B.get tags i in
    Alcotest.(check string)
      (Printf.sprintf "pair %d aligned" i)
      (Printf.sprintf "t%d" (v / 10))
      tag
  done

(* The property version of the same invariant: an arbitrary interleaving
   of pushes, same-index deletes, and compactions applied to two rings —
   deliberately created with different capacities, so growth and
   wraparound happen at different times — must keep them index-aligned:
   equal lengths, identical tombstone positions, and every live slot
   still holding its partner's value. This is the alignment contract the
   weak-stack flush path relies on when it cancels a window entry. *)
let prop_parallel_rings_aligned =
  QCheck.Test.make ~name:"parallel rings aligned under delete/compact"
    ~count:400
    QCheck.(list (pair (int_bound 5) (int_bound 30)))
    (fun script ->
      let vals = B.create ~capacity:2 () in
      let tags = B.create ~capacity:16 () in
      let counter = ref 0 in
      let aligned () =
        B.length vals = B.length tags
        && B.live vals = B.live tags
        &&
        let ok = ref true in
        for i = 0 to B.length vals - 1 do
          if B.deleted vals i <> B.deleted tags i then ok := false
          else if
            (not (B.deleted vals i)) && B.get tags i <> B.get vals i * 10
          then ok := false
        done;
        !ok
      in
      let step (kind, arg) =
        match kind with
        | 0 | 1 | 2 ->
            (* Bias toward pushes so deletes and compactions have
               something to chew on. *)
            incr counter;
            B.push vals !counter;
            B.push tags (!counter * 10);
            true
        | 3 | 4 ->
            let len = B.length vals in
            if len > 0 then begin
              let i = arg mod len in
              B.delete vals i;
              B.delete tags i
            end;
            true
        | _ -> B.compact vals = B.compact tags
      in
      List.for_all (fun op -> step op && aligned ()) script
      && B.compact vals = B.compact tags
      && aligned ())

(* -------------------- qcheck: list-model parity ---------------------- *)

(* Script: true = push of the (fresh) counter value; false = one of the
   removal operations, selected by the attached int. Model is a plain
   list, oldest first. *)
let prop_model =
  QCheck.Test.make ~name:"opbuf matches list model (wraparound + growth)"
    ~count:1000
    QCheck.(list (pair bool (int_bound 2)))
    (fun script ->
      let b = B.create ~capacity:2 () in
      let model = ref [] in
      let counter = ref 0 in
      List.iter
        (fun (is_push, sel) ->
          if is_push then begin
            incr counter;
            B.push b !counter;
            model := !model @ [ !counter ]
          end
          else
            match sel with
            | 0 ->
                (* pop_back: remove newest *)
                if !model <> [] then begin
                  let expected = List.nth !model (List.length !model - 1) in
                  let got = B.pop_back b in
                  if got <> expected then
                    QCheck.Test.fail_reportf "pop_back: got %d, want %d" got
                      expected;
                  model :=
                    List.filteri
                      (fun i _ -> i < List.length !model - 1)
                      !model
                end
            | 1 ->
                (* drop_front: remove a prefix *)
                if !model <> [] then begin
                  let n = 1 + (!counter mod List.length !model) in
                  let n = min n (List.length !model) in
                  B.drop_front b n;
                  model := List.filteri (fun i _ -> i >= n) !model
                end
            | _ ->
                (* truncate to half *)
                let n = List.length !model / 2 in
                B.truncate b n;
                model := List.filteri (fun i _ -> i < n) !model)
        script;
      B.to_list b = !model
      && B.length b = List.length !model
      && List.for_all2 ( = )
           (List.init (B.length b) (B.get b))
           !model)

(* FIFO through the ring: interleaved push/drop_front at ring-wrapping
   sizes preserves arrival order. *)
let prop_fifo =
  QCheck.Test.make ~name:"opbuf FIFO order under wraparound" ~count:500
    QCheck.(int_bound 5)
    (fun chunk ->
      let chunk = chunk + 1 in
      let b = B.create ~capacity:4 () in
      let next_in = ref 0 and next_out = ref 0 and ok = ref true in
      for _ = 1 to 50 do
        for _ = 1 to chunk do
          B.push b !next_in;
          incr next_in
        done;
        let take = B.length b / 2 in
        for i = 0 to take - 1 do
          if B.get b i <> !next_out + i then ok := false
        done;
        B.drop_front b take;
        next_out := !next_out + take
      done;
      !ok)

(* ------------------ allocation budgets: window flushes ----------------- *)

(* A full window's flush must allocate O(1) beyond the spliced nodes and
   the futures themselves: the rings are reused, no transient lists. Each
   row times windows of 64 ops of one kind, each followed by a flush, and
   bounds the minor words per op at its handle's measured cost plus about
   15%. With one-block futures (6 words for a whole life), one-block
   queue nodes (3 words) and evaluators built once per handle (an op
   allocates no closure), the costs are: weak stack push 11.3, pop 8.5;
   weak queue enq 9.1, deq 8.1; medium stack push 14.3, pop 10.5;
   medium queue enq 12.2, deq 10.2; weak list 20.3, medium list 16.0,
   txn list 20.6, weak map 16.3. Each bound is below the cost with a
   closure per op (4 to 6 words more). Skipped under FLDS_FAULTS: armed
   injection points allocate on the paths being budgeted. *)
let words_per_op ~op ~flush =
  let window = 64 and iters = 500 in
  let round () =
    for i = 1 to window do
      op i
    done;
    flush ()
  in
  for _ = 1 to 10 do
    round ()
  done;
  Gc.full_major ();
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    round ()
  done;
  (Gc.minor_words () -. before) /. float_of_int (iters * window)

module Int_key = struct
  type t = int

  let compare = Int.compare
end

module WL = Fl.Weak_list.Make (Int_key)
module ML = Fl.Medium_list.Make (Int_key)
module TL = Fl.Txn_list.Make (Int_key)
module WM = Fl.Weak_map.Make (Int_key)

(* Each row makes a fresh handle and lists, per op kind, its window op,
   the flush and the budget. *)
let budget_rows =
  let row kind op flush budget = (kind, op, flush, budget) in
  [
    ( "weak-stack",
      fun () ->
        let module S = Fl.Weak_stack in
        let h = S.handle (S.create ~elimination:false ()) in
        let flush () = S.flush h in
        [
          row "push" (fun i -> ignore (S.push h i)) flush 13.0;
          row "pop" (fun _ -> ignore (S.pop h)) flush 10.0;
        ] );
    ( "weak-queue",
      fun () ->
        let module Q = Fl.Weak_queue in
        let h = Q.handle (Q.create ()) in
        let flush () = Q.flush h in
        [
          row "enq" (fun i -> ignore (Q.enqueue h i)) flush 10.5;
          row "deq" (fun _ -> ignore (Q.dequeue h)) flush 9.5;
        ] );
    ( "medium-stack",
      fun () ->
        let module S = Fl.Medium_stack in
        let h = S.handle (S.create ()) in
        let flush () = S.flush h in
        [
          row "push" (fun i -> ignore (S.push h i)) flush 16.5;
          row "pop" (fun _ -> ignore (S.pop h)) flush 12.0;
        ] );
    ( "medium-queue",
      fun () ->
        let module Q = Fl.Medium_queue in
        let h = Q.handle (Q.create ()) in
        let flush () = Q.flush h in
        [
          row "enq" (fun i -> ignore (Q.enqueue h i)) flush 14.0;
          row "deq" (fun _ -> ignore (Q.dequeue h)) flush 12.0;
        ] );
    ( "weak-list",
      fun () ->
        let h = WL.handle (WL.create ()) in
        [
          row "contains"
            (fun i -> ignore (WL.contains h i))
            (fun () -> WL.flush h)
            23.0;
        ] );
    ( "medium-list",
      fun () ->
        let h = ML.handle (ML.create ()) in
        [
          row "contains"
            (fun i -> ignore (ML.contains h i))
            (fun () -> ML.flush h)
            18.5;
        ] );
    ( "txn-list",
      fun () ->
        let h = TL.handle (TL.create ()) in
        [
          row "contains"
            (fun i -> ignore (TL.contains h i))
            (fun () -> TL.flush h)
            23.5;
        ] );
    ( "weak-map",
      fun () ->
        let h = WM.handle (WM.create ()) in
        [
          row "find"
            (fun i -> ignore (WM.find h i))
            (fun () -> WM.flush h)
            19.0;
        ] );
  ]

let test_alloc_budget make () =
  if Faults.enabled () then Alcotest.skip ();
  List.iter
    (fun (kind, op, flush, budget) ->
      let words = words_per_op ~op ~flush in
      Alcotest.(check bool)
        (Printf.sprintf "%s+flush %.1f words/op within budget %.0f" kind words
           budget)
        true (words <= budget))
    (make ())

(* A window of 4,096 pushes, as a benchmark prefill makes: the ring is
   in the major heap, so every pending op is promoted at the next minor
   collection together with whatever it holds. With the handle's shared
   evaluator an op holds only its future: 11.0 minor words per op
   (push, splice, force), against 15.0 with a closure per op. *)
let test_long_window () =
  if Faults.enabled () then Alcotest.skip ();
  let module S = Fl.Weak_stack in
  let window = 4096 and iters = 20 in
  let h = S.handle (S.create ~elimination:false ()) in
  let futs = Array.make window (Futures.Future.of_value ()) in
  let round () =
    for i = 0 to window - 1 do
      futs.(i) <- S.push h i
    done;
    S.flush h;
    Array.iter Futures.Future.force futs
  in
  for _ = 1 to 3 do
    round ()
  done;
  Gc.full_major ();
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    round ()
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int (iters * window) in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words/op within budget 12.5" words)
    true (words <= 12.5)

(* ------------- allocation budgets: slack-1 op path layers ------------- *)

(* The layers a slack-1 op crosses besides its handle: [Slack.note]
   forcing the thunk that fills the window, and the one-op Treiber
   splices. Each row times 32,000 calls of one operation with
   [words_per_op] (the 64-op rounds with nothing to flush) and divides
   by the values one call moves. Skipped under FLDS_FAULTS, like the
   budgets above. *)
let calls = 64 * (10 + 500)

let check_words label ?(per = 1) f budget =
  if Faults.enabled () then Alcotest.skip ();
  let words =
    words_per_op ~op:(fun _ -> f ()) ~flush:ignore /. float_of_int per
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.3f words within %.3f" label words budget)
    true (words <= budget)

(* The filling thunk is forced straight from [note]: at slack 1 a note
   stores nothing and allocates nothing; at slack 20 the ring is reused,
   so only the two float reads remain. *)
let test_slack_note_alloc slack budget () =
  let sl = Fl.Slack.create slack in
  let forced = ref 0 in
  let thunk () = incr forced in
  check_words
    (Printf.sprintf "slack-%d note" slack)
    (fun () -> Fl.Slack.note sl thunk)
    budget;
  Alcotest.(check bool) "window below its bound" true
    (Fl.Slack.pending sl < slack)

(* An uncontended splice allocates only what it publishes: [push_seg] of
   n values the n nodes (3 words) and their links (a 2-word [Some]),
   [push] one of each, [pop] the result option and [pop_seg] nothing.
   No backoff and no loop closure before a CAS has failed. The pop rows
   start from a stack deep enough for every call. *)
let treiber_rows =
  let module T = Lockfree.Treiber_stack in
  let n = 8 in
  let stack depth =
    let t = T.create () in
    T.push_seg t ~n:depth ~get:Fun.id;
    t
  and sink = ref 0 in
  let f _ v = sink := v in
  [
    ( "push_seg",
      fun () ->
        let t = stack 0 in
        check_words "push_seg" ~per:n
          (fun () -> T.push_seg t ~n ~get:Fun.id)
          5.01 );
    ( "pop_seg",
      fun () ->
        let t = stack (calls * n) in
        check_words "pop_seg" ~per:n
          (fun () -> ignore (T.pop_seg t ~n ~f : int))
          0.01 );
    ( "push",
      fun () ->
        let t = stack 0 in
        check_words "push" (fun () -> T.push t 1) 5.01 );
    ( "pop",
      fun () ->
        let t = stack calls in
        check_words "pop" (fun () -> ignore (T.pop t : int option)) 2.01 );
  ]

(* ---------------- Slack drain reentrancy regression ------------------ *)

(* A force thunk that reentrantly notes follow-up work must not corrupt
   the half-drained window: the reentrant registrations land in a fresh
   window and are drained before [drain] returns, each exactly once. *)
let test_slack_reentrant_note () =
  let sl = Fl.Slack.create ~order:Fl.Slack.Newest_first 4 in
  let fired = ref [] in
  let rec thunk ~respawn id () =
    fired := id :: !fired;
    if respawn then
      (* A follow-up operation issued from inside the force, as a
         medium-FL evaluator would: must be drained too, once. *)
      Fl.Slack.note sl (thunk ~respawn:false (id + 100))
  in
  for id = 1 to 3 do
    Fl.Slack.note sl (thunk ~respawn:true id)
  done;
  (* The 4th note fills the window and triggers the drain; its thunk
     respawns as well. *)
  Fl.Slack.note sl (thunk ~respawn:true 4);
  let sorted = List.sort compare !fired in
  Alcotest.(check (list int)) "each thunk fired exactly once"
    [ 1; 2; 3; 4; 101; 102; 103; 104 ] sorted;
  Alcotest.(check int) "window empty after drain" 0 (Fl.Slack.pending sl);
  (* Explicit drain on a partially filled window with reentrant notes. *)
  fired := [];
  Fl.Slack.note sl (thunk ~respawn:true 10);
  Fl.Slack.drain sl;
  Alcotest.(check (list int)) "explicit drain settles follow-ups"
    [ 10; 110 ] (List.sort compare !fired);
  Alcotest.(check int) "empty again" 0 (Fl.Slack.pending sl)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "opbuf"
    [
      ( "ring",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "growth wrapped" `Quick test_growth_wrapped;
          Alcotest.test_case "iteration orders" `Quick test_iter_orders;
          Alcotest.test_case "truncate + swap" `Quick test_truncate_swap;
        ]
        @ qsuite [ prop_model; prop_fifo ] );
      ( "tombstones",
        [
          Alcotest.test_case "delete/deleted/live" `Quick
            test_tombstones_basic;
          Alcotest.test_case "compact across wrap" `Quick
            test_tombstones_compact;
          Alcotest.test_case "pop_back skips" `Quick
            test_tombstones_pop_back_skips;
          Alcotest.test_case "parallel rings stay aligned" `Quick
            test_tombstones_parallel_rings;
        ]
        @ qsuite [ prop_parallel_rings_aligned ] );
      ( "allocation",
        List.map
          (fun (name, make) ->
            Alcotest.test_case (name ^ " flush budget") `Quick
              (test_alloc_budget make))
          budget_rows
        @ [
            Alcotest.test_case "weak-stack 4,096-op window" `Quick
              test_long_window;
            Alcotest.test_case "slack-1 note" `Quick
              (test_slack_note_alloc 1 0.001);
            Alcotest.test_case "slack-20 note" `Quick
              (test_slack_note_alloc 20 0.1);
          ]
        @ List.map
            (fun (name, test) ->
              Alcotest.test_case ("treiber " ^ name) `Quick test)
            treiber_rows );
      ( "slack",
        [
          Alcotest.test_case "reentrant note during drain" `Quick
            test_slack_reentrant_note;
        ] );
    ]
