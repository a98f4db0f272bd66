(* Tests for the Conformance library itself: claimed conditions, explicit
   condition overrides, and — critically — that it actually catches
   incorrect implementations. *)

module R = Fl.Registry
module Future = Futures.Future

let test_claimed_conditions () =
  Alcotest.(check string) "lockfree" "strong"
    (Lin.Order.condition_name (Conformance.claimed_condition "lockfree"));
  Alcotest.(check string) "elim" "strong"
    (Lin.Order.condition_name (Conformance.claimed_condition "elim"));
  Alcotest.(check string) "flatcomb" "strong"
    (Lin.Order.condition_name (Conformance.claimed_condition "flatcomb"));
  Alcotest.(check string) "strong" "strong"
    (Lin.Order.condition_name (Conformance.claimed_condition "strong"));
  Alcotest.(check string) "medium" "medium"
    (Lin.Order.condition_name (Conformance.claimed_condition "medium"));
  Alcotest.(check string) "txn" "medium"
    (Lin.Order.condition_name (Conformance.claimed_condition "txn"));
  Alcotest.(check string) "weak" "weak"
    (Lin.Order.condition_name (Conformance.claimed_condition "weak"));
  Alcotest.check_raises "unknown"
    (Invalid_argument "Conformance: unknown implementation nonesuch")
    (fun () -> ignore (Conformance.claimed_condition "nonesuch"))

(* The registry and the condition table cannot drift apart: every
   registered implementation claims a condition, and a name the registry
   dropped is unknown to the table too. *)
let test_registry_names_claimed () =
  let names =
    List.map (fun i -> i.R.s_name) R.stack_impls
    @ List.map (fun i -> i.R.q_name) R.queue_impls
    @ List.map (fun i -> i.R.l_name) R.set_impls
  in
  List.iter
    (fun name ->
      match Conformance.claimed_condition name with
      | (_ : Lin.Order.condition) -> ()
      | exception Invalid_argument _ -> Alcotest.failf "%s claims nothing" name)
    names;
  Alcotest.check_raises "weak-x is gone"
    (Invalid_argument "Conformance: unknown implementation weak-x") (fun () ->
      ignore (Conformance.claimed_condition "weak-x"))

(* A deliberately broken stack: pop returns values FIFO (it is a queue in
   disguise). Even the weak condition must catch this within a few
   rounds. *)
let broken_stack : R.stack_impl =
  {
    s_name = "weak" (* claim weak-FL: the weakest condition *);
    s_make =
      (fun () ->
        let q = Lockfree.Ms_queue.create () in
        {
          R.s_handle =
            (fun () ->
              {
                R.s_push =
                  (fun x ->
                    Lockfree.Ms_queue.enqueue q x;
                    Future.of_value ());
                s_pop =
                  (fun () -> Future.of_value (Lockfree.Ms_queue.dequeue q));
                s_flush = ignore;
                s_abandon = (fun () -> 0);
              });
          s_drain = ignore;
          s_cas_count = (fun () -> 0);
          s_contents = (fun () -> Lockfree.Ms_queue.to_list q);
        });
  }

let test_catches_broken_stack () =
  (* Single domain, sequential ops: push a; push b; pop must be b, the
     broken stack returns a. More ops per thread make a violating
     interleaving near-certain. *)
  let outcome =
    Conformance.check_stack ~threads:2 ~ops_per_thread:8 ~rounds:10
      broken_stack
  in
  Alcotest.(check bool) "violations found" true (outcome.violations > 0);
  Alcotest.(check bool) "failure rendered" true
    (outcome.first_failure <> None)

(* A "stack" that loses every second push entirely. *)
let lossy_stack : R.stack_impl =
  {
    s_name = "weak";
    s_make =
      (fun () ->
        let s = Lockfree.Treiber_stack.create () in
        let parity = Atomic.make 0 in
        {
          R.s_handle =
            (fun () ->
              {
                R.s_push =
                  (fun x ->
                    if Atomic.fetch_and_add parity 1 land 1 = 0 then
                      Lockfree.Treiber_stack.push s x;
                    Future.of_value ());
                s_pop =
                  (fun () -> Future.of_value (Lockfree.Treiber_stack.pop s));
                s_flush = ignore;
                s_abandon = (fun () -> 0);
              });
          s_drain = ignore;
          s_cas_count = (fun () -> 0);
          s_contents = (fun () -> Lockfree.Treiber_stack.to_list s);
        });
  }

let test_catches_lossy_stack () =
  let outcome =
    Conformance.check_stack ~threads:2 ~ops_per_thread:8 ~rounds:10
      lossy_stack
  in
  Alcotest.(check bool) "violations found" true (outcome.violations > 0)

(* Condition override: the weak stack checked against STRONG must fail
   (elimination reorders operations), while against weak it passes. This
   also demonstrates the conditions are genuinely distinguishable on real
   executions, not just on paper. *)
let test_weak_stack_fails_strong_check () =
  let impl = R.find_stack "weak" in
  let strong_outcome =
    Conformance.check_stack ~threads:3 ~ops_per_thread:6
      ~condition:Lin.Order.Strong ~rounds:30 impl
  in
  let weak_outcome = Conformance.check_stack ~rounds:10 impl in
  Alcotest.(check int) "weak check passes" 0 weak_outcome.violations;
  (* The strong check must fail in at least one of 30 randomized rounds:
     any round where a pop's future is fulfilled by elimination against a
     push invoked after the pop's creation response violates strong-FL. *)
  Alcotest.(check bool) "strong check fails eventually" true
    (strong_outcome.violations > 0)

let test_outcome_rounds_recorded () =
  let outcome = Conformance.check_queue ~rounds:3 (R.find_queue "medium") in
  Alcotest.(check int) "rounds" 3 outcome.rounds;
  Alcotest.(check int) "no violations" 0 outcome.violations;
  Alcotest.(check bool) "no failure text" true (outcome.first_failure = None)

let () =
  Alcotest.run "conformance"
    [
      ( "conditions",
        [
          Alcotest.test_case "claimed map" `Quick test_claimed_conditions;
          Alcotest.test_case "registry names claimed" `Quick
            test_registry_names_claimed;
        ] );
      ( "detection",
        [
          Alcotest.test_case "catches FIFO-as-stack" `Slow
            test_catches_broken_stack;
          Alcotest.test_case "catches lossy stack" `Slow
            test_catches_lossy_stack;
          Alcotest.test_case "weak impl fails strong check" `Slow
            test_weak_stack_fails_strong_check;
        ] );
      ( "outcome",
        [
          Alcotest.test_case "rounds recorded" `Slow
            test_outcome_rounds_recorded;
        ] );
    ]
