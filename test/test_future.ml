(* Tests for the Future mechanism: fulfilment, forcing, evaluators,
   cross-domain handoff, the one-block layout's terminal-transition races
   and its per-future allocation. *)

module Future = Futures.Future

let test_of_value () =
  let f = Future.of_value 42 in
  Alcotest.(check bool) "ready" true (Future.is_ready f);
  Alcotest.(check (option int)) "peek" (Some 42) (Future.peek f);
  Alcotest.(check int) "force" 42 (Future.force f);
  Alcotest.(check int) "force again" 42 (Future.force f)

let test_fulfil_once () =
  let f = Future.create () in
  Alcotest.(check bool) "pending" false (Future.is_ready f);
  Alcotest.(check (option int)) "peek pending" None (Future.peek f);
  Future.fulfil f 7;
  Alcotest.(check bool) "ready" true (Future.is_ready f);
  Alcotest.check_raises "double fulfil" Future.Already_fulfilled (fun () ->
      Future.fulfil f 8);
  Alcotest.(check int) "value preserved" 7 (Future.force f)

let test_try_fulfil () =
  let f = Future.create () in
  Alcotest.(check bool) "first" true (Future.try_fulfil f 1);
  Alcotest.(check bool) "second" false (Future.try_fulfil f 2);
  Alcotest.(check int) "kept first" 1 (Future.force f)

let test_evaluator_runs_on_force () =
  let ran = ref false in
  let f =
    Future.create_with ~evaluator:(fun f ->
        ran := true;
        Future.fulfil f 99)
  in
  Alcotest.(check bool) "not yet" false !ran;
  Alcotest.(check int) "forced" 99 (Future.force f);
  Alcotest.(check bool) "evaluator ran" true !ran

let test_evaluator_not_rerun () =
  let runs = ref 0 in
  let f =
    Future.create_with ~evaluator:(fun f ->
        incr runs;
        Future.fulfil f !runs)
  in
  Alcotest.(check int) "first force" 1 (Future.force f);
  Alcotest.(check int) "second force cached" 1 (Future.force f);
  Alcotest.(check int) "single run" 1 !runs

let test_create_with () =
  let fut = Future.create_with ~evaluator:(fun f -> Future.fulfil f 5) in
  Alcotest.(check int) "force" 5 (Future.force fut)

(* The evaluator is handed the very future being forced, not a copy or
   a sibling. *)
let test_evaluator_gets_forced_future () =
  let seen : int Future.t list ref = ref [] in
  let fut =
    Future.create_with ~evaluator:(fun f ->
        seen := f :: !seen;
        Future.fulfil f 3)
  in
  Alcotest.(check int) "force" 3 (Future.force fut);
  Alcotest.(check int) "ran once" 1 (List.length !seen);
  Alcotest.(check bool) "got the forced future" true (List.hd !seen == fut)

(* One evaluator closure serves two futures, the way a handle's shared
   evaluator serves all of its ops: each force fulfils the future it is
   given, and only that one. *)
let test_shared_evaluator () =
  let runs = ref 0 in
  let eval f =
    incr runs;
    Future.fulfil f (10 * !runs)
  in
  let a = Future.create_with ~evaluator:eval in
  let b = Future.create_with ~evaluator:eval in
  Alcotest.(check int) "b forced first" 10 (Future.force b);
  Alcotest.(check bool) "a untouched" false (Future.is_ready a);
  Alcotest.(check int) "then a" 20 (Future.force a);
  Alcotest.(check int) "b cached" 10 (Future.force b);
  Alcotest.(check int) "one run per future" 2 !runs

let test_force_stuck () =
  let f : int Future.t = Future.create () in
  Alcotest.check_raises "stuck without evaluator" Future.Stuck (fun () ->
      ignore (Future.force f))

let test_broken_evaluator_stuck () =
  let f : int Future.t =
    Future.create_with ~evaluator:(fun _ -> () (* forgets to fulfil *))
  in
  Alcotest.check_raises "stuck evaluator" Future.Stuck (fun () ->
      ignore (Future.force f))

let test_replace_broken_evaluator () =
  (* A Stuck force leaves the future pending: once whatever the
     evaluator depends on is repaired, the owner may retry. *)
  let repaired = ref false in
  let f : int Future.t =
    Future.create_with ~evaluator:(fun f ->
        if !repaired then Future.fulfil f 11)
  in
  Alcotest.check_raises "broken first" Future.Stuck (fun () ->
      ignore (Future.force f));
  Alcotest.(check bool) "still pending" false (Future.is_ready f);
  repaired := true;
  Alcotest.(check int) "repaired and forced" 11 (Future.force f)

let test_evaluator_fulfilled_concurrently () =
  (* The evaluator finds the future already fulfilled (an eliminator or
     combiner got there first): it must not double-fulfil, and force
     returns the existing value. *)
  let f =
    Future.create_with ~evaluator:(fun f -> ignore (Future.try_fulfil f 2))
  in
  Future.fulfil f 1;
  Alcotest.(check int) "first fulfilment wins" 1 (Future.force f)

(* --------------------------- bounded waits --------------------------- *)

let test_await_for_ready () =
  let f = Future.of_value 5 in
  Alcotest.(check int) "ready, no wait" 5 (Future.await_for f ~seconds:0.0)

let test_await_for_timeout () =
  let f : int Future.t = Future.create () in
  let dt =
    Workload.Runner.time (fun () ->
        Alcotest.check_raises "nobody fulfils" Future.Timeout (fun () ->
            ignore (Future.await_for f ~seconds:0.002)))
  in
  Alcotest.(check bool) "waited the timeout out" true (dt >= 0.002);
  (* Timeout leaves the future usable. *)
  Future.fulfil f 3;
  Alcotest.(check int) "late fulfilment still lands" 3 (Future.await f)

let test_force_until_timeout_then_value () =
  let f : int Future.t = Future.create () in
  Alcotest.check_raises "deadline passes" Future.Timeout (fun () ->
      ignore (Future.force_until f ~deadline:(Sync.Mono.now () +. 0.002)));
  Future.fulfil f 8;
  Alcotest.(check int) "ready future ignores deadline" 8
    (Future.force_until f ~deadline:0.0)

let test_force_until_evaluator_completes () =
  (* An installed evaluator runs to completion even past the deadline —
     aborting it midway could leave pending lists half-applied. *)
  let f =
    Future.create_with ~evaluator:(fun f ->
        Unix.sleepf 0.005;
        Future.fulfil f 4)
  in
  Alcotest.(check int) "evaluator finishes despite past deadline" 4
    (Future.force_until f ~deadline:0.0)

let test_force_until_broken_evaluator_stuck () =
  let f : int Future.t = Future.create_with ~evaluator:(fun _ -> ()) in
  Alcotest.check_raises "stuck beats timeout for broken evaluators"
    Future.Stuck (fun () ->
      ignore (Future.force_until f ~deadline:(Sync.Mono.now () +. 1.0)))

let test_await_for_cross_domain () =
  let f = Future.create () in
  let producer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.005;
        Future.fulfil f 77)
  in
  Alcotest.(check int) "fulfilled within patience" 77
    (Future.await_for f ~seconds:2.0);
  Domain.join producer

let test_cross_domain_fulfil () =
  let f = Future.create () in
  let producer = Domain.spawn (fun () -> Future.fulfil f 123) in
  Alcotest.(check int) "await" 123 (Future.await f);
  Domain.join producer

let test_cross_domain_force_waits () =
  (* force with no evaluator waits a bounded time; a concurrent fulfiller
     should win the race comfortably. *)
  let f = Future.create () in
  let producer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.01;
        Future.fulfil f "hello")
  in
  Alcotest.(check string) "forced" "hello" (Future.force f);
  Domain.join producer

let test_many_futures_one_producer () =
  let n = 1_000 in
  let futures = Array.init n (fun _ -> Future.create ()) in
  let producer =
    Domain.spawn (fun () -> Array.iteri (fun i f -> Future.fulfil f i) futures)
  in
  let ok = ref true in
  Array.iteri (fun i f -> if Future.await f <> i then ok := false) futures;
  Domain.join producer;
  Alcotest.(check bool) "all values delivered" true !ok

(* ----------------------------- lifecycle ---------------------------- *)

let test_cancel_basic () =
  let f : int Future.t = Future.create () in
  Alcotest.(check bool) "pending before" true (Future.is_pending f);
  Alcotest.(check bool) "cancel wins" true (Future.cancel f);
  Alcotest.(check bool) "cancelled" true (Future.is_cancelled f);
  Alcotest.(check bool) "not ready" false (Future.is_ready f);
  Alcotest.(check bool) "not pending" false (Future.is_pending f);
  Alcotest.(check (option int)) "peek empty" None (Future.peek f);
  Alcotest.(check bool) "second cancel loses" false (Future.cancel f);
  Alcotest.(check bool) "poison after cancel loses" false
    (Future.poison f Future.Orphaned);
  Alcotest.(check bool) "try_fulfil after cancel loses" false
    (Future.try_fulfil f 1);
  Alcotest.check_raises "force raises" Future.Cancelled (fun () ->
      ignore (Future.force f));
  Alcotest.check_raises "await raises" Future.Cancelled (fun () ->
      ignore (Future.await f));
  Alcotest.check_raises "await_for raises, not Timeout" Future.Cancelled
    (fun () -> ignore (Future.await_for f ~seconds:10.0));
  Alcotest.check_raises "fulfil raises" Future.Already_fulfilled (fun () ->
      Future.fulfil f 2)

let test_cancel_loses_to_fulfil () =
  let f = Future.create () in
  Future.fulfil f 5;
  Alcotest.(check bool) "cancel after fulfil loses" false (Future.cancel f);
  Alcotest.(check int) "value stands" 5 (Future.force f)

let test_poison_basic () =
  let f : int Future.t = Future.create () in
  Alcotest.(check bool) "poison wins" true (Future.poison f Future.Orphaned);
  Alcotest.(check bool) "poisoned" true (Future.is_poisoned f);
  Alcotest.(check bool) "not cancelled" false (Future.is_cancelled f);
  Alcotest.(check bool) "second poison loses" false
    (Future.poison f Future.Orphaned);
  Alcotest.check_raises "force raises Broken" (Future.Broken Future.Orphaned)
    (fun () -> ignore (Future.force f));
  Alcotest.check_raises "await_for raises immediately"
    (Future.Broken Future.Orphaned) (fun () ->
      ignore (Future.await_for f ~seconds:10.0))

let test_poison_carries_reason () =
  let f : int Future.t = Future.create () in
  let reason = Failure "combiner died" in
  Alcotest.(check bool) "poison wins" true (Future.poison f reason);
  Alcotest.check_raises "reason travels" (Future.Broken reason) (fun () ->
      ignore (Future.await f))

let test_cancelled_evaluator_not_run () =
  let ran = ref false in
  let f : int Future.t =
    Future.create_with ~evaluator:(fun f ->
        ran := true;
        Future.fulfil f 1)
  in
  Alcotest.(check bool) "cancel wins" true (Future.cancel f);
  Alcotest.check_raises "force raises" Future.Cancelled (fun () ->
      ignore (Future.force f));
  Alcotest.(check bool) "evaluator never ran" false !ran

let test_cancel_fulfil_race () =
  (* Exactly one of a concurrent cancel and fulfil wins, and the loser's
     view is consistent with the winner's. *)
  let races = 200 in
  let inconsistent = ref 0 in
  for _ = 1 to races do
    let f = Future.create () in
    let barrier = Sync.Barrier.create 2 in
    let fulfiller =
      Domain.spawn (fun () ->
          Sync.Barrier.wait barrier;
          Future.try_fulfil f 42)
    in
    Sync.Barrier.wait barrier;
    let cancelled = Future.cancel f in
    let fulfilled = Domain.join fulfiller in
    (match (cancelled, fulfilled) with
    | true, false ->
        if not (Future.is_cancelled f) then incr inconsistent
    | false, true -> if Future.force f <> 42 then incr inconsistent
    | true, true | false, false -> incr inconsistent);
    ()
  done;
  Alcotest.(check int) "one winner, consistent state" 0 !inconsistent

let test_map_propagates_cancel () =
  let f : int Future.t = Future.create () in
  let g = Future.map (fun x -> x * 2) f in
  Alcotest.(check bool) "parent cancelled" true (Future.cancel f);
  Alcotest.check_raises "derived raises parent's exn, not Stuck"
    Future.Cancelled (fun () -> ignore (Future.force g));
  (* The derived future is itself terminated: later forces short-circuit
     without re-forcing the parent. *)
  Alcotest.(check bool) "derived cancelled" true (Future.is_cancelled g);
  Alcotest.check_raises "cached terminal state" Future.Cancelled (fun () ->
      ignore (Future.force g))

let test_map_propagates_poison () =
  let f : int Future.t = Future.create () in
  let g = Future.map (fun x -> x * 2) f in
  Alcotest.(check bool) "parent poisoned" true
    (Future.poison f Future.Orphaned);
  Alcotest.check_raises "derived raises Broken"
    (Future.Broken Future.Orphaned) (fun () -> ignore (Future.force g));
  Alcotest.(check bool) "derived poisoned" true (Future.is_poisoned g)

let test_both_propagates_terminal () =
  let a = Future.create () and b : string Future.t = Future.create () in
  Future.fulfil a 1;
  Alcotest.(check bool) "b poisoned" true (Future.poison b Future.Orphaned);
  let c = Future.both a b in
  Alcotest.check_raises "pair raises" (Future.Broken Future.Orphaned)
    (fun () -> ignore (Future.force c));
  Alcotest.(check bool) "pair poisoned" true (Future.is_poisoned c)

let test_all_propagates_terminal () =
  let fs = [ Future.of_value 0; Future.create (); Future.of_value 2 ] in
  (match fs with
  | [ _; p; _ ] -> Alcotest.(check bool) "cancelled" true (Future.cancel p)
  | _ -> assert false);
  let batch = Future.all fs in
  Alcotest.check_raises "batch raises" Future.Cancelled (fun () ->
      ignore (Future.force batch));
  Alcotest.(check bool) "batch cancelled" true (Future.is_cancelled batch)

let test_poison_wakes_waiter () =
  (* A waiter spinning in await is released (with Broken) when another
     thread poisons the orphan — the recovery path for a dead fulfiller. *)
  let f : int Future.t = Future.create () in
  let waiter =
    Domain.spawn (fun () ->
        match Future.await f with
        | _ -> `Fulfilled
        | exception Future.Broken Future.Orphaned -> `Poisoned
        | exception _ -> `Other)
  in
  Unix.sleepf 0.005;
  Alcotest.(check bool) "poison wins" true (Future.poison f Future.Orphaned);
  Alcotest.(check bool) "waiter released with Broken" true
    (Domain.join waiter = `Poisoned)

(* ---------------------------- combinators --------------------------- *)

let test_map () =
  let f = Future.create () in
  let g = Future.map (fun x -> x * 2) f in
  Alcotest.(check bool) "derived pending" false (Future.is_ready g);
  Future.fulfil f 21;
  Alcotest.(check int) "derived forces parent" 42 (Future.force g);
  Alcotest.(check int) "cached" 42 (Future.force g)

let test_map_forces_evaluator () =
  let evaluated = ref false in
  let f =
    Future.create_with ~evaluator:(fun f ->
        evaluated := true;
        Future.fulfil f 10)
  in
  let g = Future.map string_of_int f in
  Alcotest.(check string) "maps after eval" "10" (Future.force g);
  Alcotest.(check bool) "parent evaluator ran" true !evaluated

let test_both () =
  let a = Future.create_with ~evaluator:(fun a -> Future.fulfil a 1)
  and b = Future.create_with ~evaluator:(fun b -> Future.fulfil b "x") in
  let c = Future.both a b in
  Alcotest.(check (pair int string)) "pair" (1, "x") (Future.force c)

let test_all () =
  let fs = List.init 5 Future.of_value in
  let batch = Future.all fs in
  Alcotest.(check (list int)) "batch" [ 0; 1; 2; 3; 4 ] (Future.force batch);
  let pending = Future.create_with ~evaluator:(fun f -> Future.fulfil f 9) in
  let batch2 = Future.all [ pending ] in
  Alcotest.(check (list int)) "evaluators forced" [ 9 ] (Future.force batch2)

(* Compile-time conformance of the handle-based structures to the shared
   signatures (no runtime component). *)
module _ : Fl.Fl_intf.HANDLE_STACK = Fl.Weak_stack
module _ : Fl.Fl_intf.HANDLE_STACK = Fl.Medium_stack
module _ : Fl.Fl_intf.HANDLE_QUEUE = Fl.Weak_queue
module _ : Fl.Fl_intf.HANDLE_QUEUE = Fl.Medium_queue

module Int_key = struct
  type t = int

  let compare = Int.compare
end

module _ : Fl.Fl_intf.HANDLE_SET with module Key := Int_key =
  Fl.Weak_list.Make (Int_key)

module _ : Fl.Fl_intf.HANDLE_SET with module Key := Int_key =
  Fl.Medium_list.Make (Int_key)

module _ : Fl.Fl_intf.HANDLE_SET with module Key := Int_key =
  Fl.Txn_list.Make (Int_key)

(* Rejection: the admission-control fate. Distinct from Cancelled (the
   waiter gave up) and Broken (the op was accepted, then lost) — a
   rejected op was never accepted, so resubmission is safe. *)
let test_reject_basic () =
  let f : int Future.t = Future.create () in
  Alcotest.(check bool) "reject wins the race" true (Future.reject f);
  Alcotest.(check bool) "rejected" true (Future.is_rejected f);
  Alcotest.(check bool) "not cancelled" false (Future.is_cancelled f);
  Alcotest.(check bool) "not ready" false (Future.is_ready f);
  Alcotest.(check bool) "not pending" false (Future.is_pending f);
  Alcotest.(check (option int)) "peek empty" None (Future.peek f);
  Alcotest.(check bool) "second reject loses" false (Future.reject f);
  Alcotest.(check bool) "cancel after reject loses" false (Future.cancel f);
  Alcotest.(check bool) "try_fulfil after reject loses" false
    (Future.try_fulfil f 1);
  Alcotest.check_raises "force raises" Future.Rejected (fun () ->
      ignore (Future.force f));
  Alcotest.check_raises "await raises" Future.Rejected (fun () ->
      ignore (Future.await f));
  Alcotest.check_raises "await_for raises, not Timeout" Future.Rejected
    (fun () -> ignore (Future.await_for f ~seconds:10.0))

let test_reject_loses_races () =
  let f = Future.create () in
  Future.fulfil f 5;
  Alcotest.(check bool) "reject after fulfil loses" false (Future.reject f);
  Alcotest.(check int) "value kept" 5 (Future.force f);
  let g : int Future.t = Future.create () in
  Alcotest.(check bool) "cancel first" true (Future.cancel g);
  Alcotest.(check bool) "reject after cancel loses" false (Future.reject g);
  Alcotest.(check bool) "fate unchanged" true (Future.is_cancelled g)

let test_rejected_constructor () =
  let f : int Future.t = Future.rejected () in
  Alcotest.(check bool) "born rejected" true (Future.is_rejected f);
  Alcotest.check_raises "force raises" Future.Rejected (fun () ->
      ignore (Future.force f))

let test_map_propagates_reject () =
  let f : int Future.t = Future.create () in
  let g = Future.map (fun x -> x + 1) f in
  ignore (Future.reject f);
  Alcotest.check_raises "derived raises Rejected" Future.Rejected (fun () ->
      ignore (Future.force g));
  Alcotest.(check bool) "derived is rejected" true (Future.is_rejected g)

let test_retry_eventually_accepted () =
  let refusals = ref 2 in
  let calls = ref 0 in
  let f =
    Future.retry ~attempts:5 (fun () ->
        incr calls;
        if !refusals > 0 then begin
          decr refusals;
          Future.rejected ()
        end
        else Future.of_value 42)
  in
  Alcotest.(check int) "two refusals, then accepted" 3 !calls;
  Alcotest.(check int) "accepted value" 42 (Future.force f)

let test_retry_exhausts_attempts () =
  let calls = ref 0 in
  let f : int Future.t =
    Future.retry ~attempts:3 (fun () ->
        incr calls;
        Future.rejected ())
  in
  Alcotest.(check int) "bounded: exactly attempts calls" 3 !calls;
  Alcotest.(check bool) "final fate is rejected" true (Future.is_rejected f)

(* retry only resubmits Rejected: a Cancelled or Broken future was an
   accepted op, and resubmitting it could double-apply the effect. *)
let test_retry_only_retries_rejected () =
  let calls = ref 0 in
  let f : int Future.t =
    Future.retry ~attempts:5 (fun () ->
        incr calls;
        let g = Future.create () in
        ignore (Future.cancel g);
        g)
  in
  Alcotest.(check int) "cancelled not resubmitted" 1 !calls;
  Alcotest.(check bool) "cancelled fate kept" true (Future.is_cancelled f);
  let broken_calls = ref 0 in
  let b : int Future.t =
    Future.retry ~attempts:5 (fun () ->
        incr broken_calls;
        let g = Future.create () in
        ignore (Future.poison g Future.Orphaned);
        g)
  in
  Alcotest.(check int) "broken not resubmitted" 1 !broken_calls;
  Alcotest.(check bool) "broken fate kept" true (Future.is_poisoned b);
  Alcotest.check_raises "attempts must be >= 1"
    (Invalid_argument "Future.retry: attempts must be >= 1") (fun () ->
      ignore (Future.retry ~attempts:0 (fun () -> Future.of_value 0)))

(* Concurrent reject vs fulfil: exactly one side wins, and the loser
   observes the winner's fate. *)
let test_reject_fulfil_race () =
  for _ = 1 to 200 do
    let f = Future.create () in
    let barrier = Atomic.make 0 in
    let d =
      Domain.spawn (fun () ->
          Atomic.incr barrier;
          while Atomic.get barrier < 2 do
            Domain.cpu_relax ()
          done;
          Future.try_fulfil f 1)
    in
    Atomic.incr barrier;
    while Atomic.get barrier < 2 do
      Domain.cpu_relax ()
    done;
    let rejected = Future.reject f in
    let fulfilled = Domain.join d in
    Alcotest.(check bool) "exactly one winner" true (rejected <> fulfilled);
    Alcotest.(check bool) "fate matches winner" fulfilled (Future.is_ready f)
  done

(* ------------------ one-block layout: races, allocation ---------------- *)

(* Fates a racer can observe, as codes comparable across domains. *)
let fate f =
  if Future.is_ready f then 1
  else if Future.is_cancelled f then 2
  else if Future.is_poisoned f then 3
  else if Future.is_rejected f then 4
  else 0

(* Four domains race the four terminal transitions — racer [k] wins with
   fate [k + 1] — on each of [n] pending futures, meeting at a barrier
   before each one so all four attempts start together. Exactly one
   racer wins each future, every racer reads back the same fate after
   its attempt, and that fate and the fulfilled value survive a full
   major GC. With [~promote] the futures are moved to the major heap
   first, so the field-0 CAS stores a young terminal state into an old
   block and must run the write barrier. *)
let terminal_race ~promote () =
  let n = 2_000 and racers = 4 in
  let futs : string Future.t array = Array.init n (fun _ -> Future.create ()) in
  if promote then Gc.full_major ();
  let won = Array.init racers (fun _ -> Array.make n false) in
  let seen = Array.init racers (fun _ -> Array.make n 0) in
  let barrier = Sync.Barrier.create racers in
  let attempt k f i =
    match k with
    | 0 -> Future.try_fulfil f (string_of_int i)
    | 1 -> Future.cancel f
    | 2 -> Future.poison f Future.Orphaned
    | _ -> Future.reject f
  in
  let race k () =
    for i = 0 to n - 1 do
      Sync.Barrier.wait barrier;
      won.(k).(i) <- attempt k futs.(i) i;
      seen.(k).(i) <- fate futs.(i)
    done
  in
  let ds = List.init (racers - 1) (fun k -> Domain.spawn (race (k + 1))) in
  race 0 ();
  List.iter Domain.join ds;
  Gc.full_major ();
  let wins = Array.make racers 0 in
  Array.iteri
    (fun i f ->
      let winners =
        List.filter (fun k -> won.(k).(i)) (List.init racers Fun.id)
      in
      (match winners with
      | [ k ] ->
          wins.(k) <- wins.(k) + 1;
          if fate f <> k + 1 then
            Alcotest.failf "future %d: racer %d won, fate %d" i k (fate f)
      | _ ->
          Alcotest.failf "future %d: %d winners" i (List.length winners));
      for k = 0 to racers - 1 do
        if seen.(k).(i) <> fate f then
          Alcotest.failf "future %d: racer %d read fate %d, final %d" i k
            seen.(k).(i) (fate f)
      done;
      if fate f = 1 && Future.peek f <> Some (string_of_int i) then
        Alcotest.failf "future %d: wrong value" i)
    futs;
  Alcotest.(check int) "every future has one winner" n
    (Array.fold_left ( + ) 0 wins)

(* Minor words one call allocates, averaged over many calls. *)
let words_per_call f =
  for _ = 1 to 10 do
    f ()
  done;
  let calls = 1_000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

let no_work _ = ()

(* A future is one block plus its [Ready] box: 6 words for a whole
   create_with -> fulfil -> force life, and for of_value (10 and 8 with a
   separate atomic cell and an optional evaluator). Skipped under
   FLDS_FAULTS: armed injection points allocate. *)
let test_future_allocation () =
  if Faults.enabled () then Alcotest.skip ();
  let life () =
    let f = Future.create_with ~evaluator:no_work in
    Future.fulfil f (Sys.opaque_identity 7);
    ignore (Sys.opaque_identity (Future.force f))
  in
  let born_ready () =
    ignore (Sys.opaque_identity (Future.of_value (Sys.opaque_identity 7)))
  in
  List.iter
    (fun (name, words) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f words within 6" name words)
        true (words <= 6.0))
    [
      ("create_with -> fulfil -> force", words_per_call life);
      ("of_value", words_per_call born_ready);
    ]

let () =
  Alcotest.run "future"
    [
      ( "single-thread",
        [
          Alcotest.test_case "of_value" `Quick test_of_value;
          Alcotest.test_case "fulfil once" `Quick test_fulfil_once;
          Alcotest.test_case "try_fulfil" `Quick test_try_fulfil;
          Alcotest.test_case "evaluator on force" `Quick
            test_evaluator_runs_on_force;
          Alcotest.test_case "evaluator not rerun" `Quick
            test_evaluator_not_rerun;
          Alcotest.test_case "create_with" `Quick test_create_with;
          Alcotest.test_case "force stuck" `Quick test_force_stuck;
          Alcotest.test_case "broken evaluator" `Quick
            test_broken_evaluator_stuck;
          Alcotest.test_case "repair broken evaluator" `Quick
            test_replace_broken_evaluator;
          Alcotest.test_case "evaluator loses fulfilment race" `Quick
            test_evaluator_fulfilled_concurrently;
          Alcotest.test_case "evaluator gets the forced future" `Quick
            test_evaluator_gets_forced_future;
          Alcotest.test_case "one evaluator, two futures" `Quick
            test_shared_evaluator;
        ] );
      ( "bounded-waits",
        [
          Alcotest.test_case "await_for ready" `Quick test_await_for_ready;
          Alcotest.test_case "await_for timeout" `Quick test_await_for_timeout;
          Alcotest.test_case "force_until timeout then value" `Quick
            test_force_until_timeout_then_value;
          Alcotest.test_case "force_until runs evaluator to completion"
            `Quick test_force_until_evaluator_completes;
          Alcotest.test_case "force_until broken evaluator is Stuck" `Quick
            test_force_until_broken_evaluator_stuck;
          Alcotest.test_case "await_for cross-domain" `Quick
            test_await_for_cross_domain;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "cancel matrix" `Quick test_cancel_basic;
          Alcotest.test_case "cancel loses to fulfil" `Quick
            test_cancel_loses_to_fulfil;
          Alcotest.test_case "poison matrix" `Quick test_poison_basic;
          Alcotest.test_case "poison carries reason" `Quick
            test_poison_carries_reason;
          Alcotest.test_case "cancelled evaluator not run" `Quick
            test_cancelled_evaluator_not_run;
          Alcotest.test_case "cancel vs fulfil race" `Quick
            test_cancel_fulfil_race;
          Alcotest.test_case "map propagates cancel" `Quick
            test_map_propagates_cancel;
          Alcotest.test_case "map propagates poison" `Quick
            test_map_propagates_poison;
          Alcotest.test_case "both propagates terminal" `Quick
            test_both_propagates_terminal;
          Alcotest.test_case "all propagates terminal" `Quick
            test_all_propagates_terminal;
          Alcotest.test_case "poison wakes waiter" `Quick
            test_poison_wakes_waiter;
        ] );
      ( "rejection",
        [
          Alcotest.test_case "reject matrix" `Quick test_reject_basic;
          Alcotest.test_case "reject loses races" `Quick
            test_reject_loses_races;
          Alcotest.test_case "rejected constructor" `Quick
            test_rejected_constructor;
          Alcotest.test_case "map propagates reject" `Quick
            test_map_propagates_reject;
          Alcotest.test_case "retry eventually accepted" `Quick
            test_retry_eventually_accepted;
          Alcotest.test_case "retry exhausts attempts" `Quick
            test_retry_exhausts_attempts;
          Alcotest.test_case "retry only retries rejected" `Quick
            test_retry_only_retries_rejected;
          Alcotest.test_case "reject vs fulfil race" `Quick
            test_reject_fulfil_race;
        ] );
      ( "combinators",
        [
          Alcotest.test_case "map" `Quick test_map;
          Alcotest.test_case "map forces evaluator" `Quick
            test_map_forces_evaluator;
          Alcotest.test_case "both" `Quick test_both;
          Alcotest.test_case "all" `Quick test_all;
        ] );
      ( "cross-domain",
        [
          Alcotest.test_case "fulfil then await" `Quick
            test_cross_domain_fulfil;
          Alcotest.test_case "force waits for fulfiller" `Quick
            test_cross_domain_force_waits;
          Alcotest.test_case "1000 futures" `Slow
            test_many_futures_one_producer;
        ] );
      ( "one-block",
        [
          Alcotest.test_case "terminal race (4 domains)" `Quick
            (terminal_race ~promote:false);
          Alcotest.test_case "terminal race on promoted futures" `Quick
            (terminal_race ~promote:true);
          Alcotest.test_case "allocation per future" `Quick
            test_future_allocation;
        ] );
    ]
