(* Tests for the sharded elimination exchanger: single-thread offer
   mechanics, cross-domain pairing, cancellation, and the elimination
   stack built on it. *)

module E = Lockfree.Exchanger

(* Wait for another domain's give by polling with short parked takes.
   A giver that probes just as one of these takes times out can lose
   the claim race and return [false]; the givers below retry, so a pair
   still meets. *)
let rec take_until x n =
  if n = 0 then None
  else
    match E.take ~patience:1_000 x with
    | Some _ as r -> r
    | None -> take_until x (n - 1)

(* Give [v] until a taker has it, at most [n] parked offers. *)
let rec give_until x v n =
  n > 0 && (E.give ~patience:1_000_000 x v || give_until x v (n - 1))

let test_create () =
  let x : int E.t = E.create ~capacity:4 () in
  Alcotest.(check int) "capacity" 4 (E.capacity x);
  Alcotest.(check int) "initial width" 2 (E.width x);
  Alcotest.(check int) "no exchanges yet" 0 (E.exchanged x);
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Exchanger.create: capacity <= 0") (fun () ->
      ignore (E.create ~capacity:0 () : int E.t));
  let one : int E.t = E.create ~capacity:1 () in
  Alcotest.(check int) "width clamped to capacity" 1 (E.width one)

(* Alone, nothing pairs: give/take park then withdraw. *)
let test_solo_timeout () =
  let x : int E.t = E.create () in
  Alcotest.(check bool) "give times out" false (E.give ~patience:2 x 1);
  Alcotest.(check (option int)) "take times out" None (E.take ~patience:2 x);
  Alcotest.(check int) "still no exchanges" 0 (E.exchanged x)

(* Width one keeps give and take on the same slot, so a parked offer is
   always found by the opposite operation. *)
let test_parked_give_fed_by_take () =
  let x : int E.t = E.create ~capacity:1 () in
  let d =
    Domain.spawn (fun () ->
        (* Generous patience: the other domain will arrive. *)
        give_until x 42 100)
  in
  let got = take_until x 10_000 in
  Alcotest.(check bool) "give handed off" true (Domain.join d);
  Alcotest.(check (option int)) "take fed" (Some 42) got;
  Alcotest.(check int) "one exchange" 1 (E.exchanged x)

let test_parked_take_fed_by_give () =
  let x : int E.t = E.create ~capacity:1 () in
  let d =
    Domain.spawn (fun () ->
        (* Re-park on timeout (boundedly), so a feeder that is scheduled
           late still finds a taker to poll for. *)
        let rec park n =
          match E.take ~patience:1_000_000 x with
          | None when n > 0 -> park (n - 1)
          | r -> r
        in
        park 100)
  in
  (* Only the taker can reach the park loop before the first give, so
     its first park round says a take offer sits in the one slot. *)
  let parked = Atomic.make false in
  Faults.on "elim.park" (fun _ ->
      Atomic.set parked true;
      Faults.Nothing);
  while not (Atomic.get parked) do
    Domain.cpu_relax ()
  done;
  Faults.clear "elim.park";
  Alcotest.(check bool) "give fed the taker" true (give_until x 7 100);
  Alcotest.(check (option int)) "taker got the value" (Some 7)
    (Domain.join d);
  Alcotest.(check int) "one exchange" 1 (E.exchanged x)

(* Values are conserved: under concurrent givers and takers, every value
   taken was given, no duplicates, and counts match [exchanged]. *)
let test_pairing_conservation () =
  let x : int E.t = E.create ~capacity:4 () in
  let per = 2_000 in
  let giver =
    Domain.spawn (fun () ->
        let given = ref [] in
        for i = 1 to per do
          if E.give ~patience:64 x i then given := i :: !given
        done;
        !given)
  in
  let taker =
    Domain.spawn (fun () ->
        let got = ref [] in
        for _ = 1 to per do
          match E.take ~patience:64 x with
          | Some v -> got := v :: !got
          | None -> ()
        done;
        !got)
  in
  let given = Domain.join giver and got = Domain.join taker in
  Alcotest.(check int) "every taken value was handed off"
    (List.length given) (List.length got);
  Alcotest.(check (list int)) "same multiset"
    (List.sort compare given) (List.sort compare got);
  Alcotest.(check int) "exchanged counter agrees" (List.length got)
    (E.exchanged x);
  Alcotest.(check bool) "width stays in bounds" true
    (E.width x >= 1 && E.width x <= E.capacity x)

(* ---------------------------- cancellation --------------------------- *)

(* A parked offer that times out is withdrawn through the same
   three-state protocol as a dead partner's: counted, slot cleared. *)
let test_timeout_counts_as_cancel () =
  let x : int E.t = E.create ~capacity:1 () in
  Alcotest.(check bool) "give times out" false (E.give ~patience:2 x 1);
  Alcotest.(check int) "give withdrawal counted" 1 (E.cancelled x);
  Alcotest.(check (option int)) "take times out" None (E.take ~patience:2 x);
  Alcotest.(check int) "take withdrawal counted" 2 (E.cancelled x);
  (* Withdrawn cleanly: the slot is free for a live pair. *)
  let d = Domain.spawn (fun () -> give_until x 9 100) in
  Alcotest.(check (option int)) "slot still pairs" (Some 9)
    (take_until x 10_000);
  Alcotest.(check bool) "give handed off" true (Domain.join d)

(* A giver killed while parked (injected [Faults.Killed] in the park
   loop) withdraws its offer on the way out: the value is never captured
   and the slot is left clean for live partners. *)
let test_kill_while_parked_withdraws () =
  let x : int E.t = E.create ~capacity:1 () in
  (* Unconditional: hit counters are global and process-wide, so under a
     seeded FLDS_FAULTS run earlier parks have already consumed the low
     hit indices. Only the victim parks while the script is installed. *)
  Faults.on "elim.park" (fun _ -> Faults.Kill);
  let victim =
    Domain.spawn (fun () ->
        match E.give ~patience:1_000_000 x 13 with
        | (_ : bool) -> `Survived
        | exception Faults.Killed _ -> `Killed)
  in
  let fate = Domain.join victim in
  Faults.clear "elim.park";
  Alcotest.(check bool) "giver died in the park loop" true (fate = `Killed);
  Alcotest.(check int) "offer withdrawn" 1 (E.cancelled x);
  Alcotest.(check bool) "dead value not capturable" true
    (E.take ~patience:2 x = None);
  Alcotest.(check int) "nothing exchanged" 0 (E.exchanged x);
  (* The dead partner left no residue: a live pair still meets. *)
  let d = Domain.spawn (fun () -> give_until x 21 100) in
  Alcotest.(check (option int)) "live pair unaffected" (Some 21)
    (take_until x 10_000);
  Alcotest.(check bool) "live give handed off" true (Domain.join d)

(* Storm of impatient offers: cancellation and reclamation race claims
   constantly, yet values are conserved and every cancelled offer is
   withdrawn at most once (reclaimed never exceeds cancelled). *)
let test_cancel_reclaim_stress () =
  let x : int E.t = E.create ~capacity:2 () in
  let per = 5_000 in
  let giver =
    Domain.spawn (fun () ->
        let given = ref 0 in
        for i = 1 to per do
          if E.give ~patience:(i mod 3) x i then incr given
        done;
        !given)
  in
  let taker =
    Domain.spawn (fun () ->
        let got = ref 0 in
        for i = 1 to per do
          match E.take ~patience:(i mod 3) x with
          | Some _ -> incr got
          | None -> ()
        done;
        !got)
  in
  let given = Domain.join giver and got = Domain.join taker in
  Alcotest.(check int) "conservation" given got;
  Alcotest.(check int) "exchanged agrees" got (E.exchanged x);
  Alcotest.(check bool) "reclaimed bounded by cancelled" true
    (E.reclaimed x <= E.cancelled x);
  (* Drain: whatever the storm left parked is cancelled garbage at most;
     nothing live remains to pair with. *)
  Alcotest.(check (option int)) "no live residue" None (E.take ~patience:2 x)

(* The elimination stack's adaptive array still yields a correct stack:
   conservation under concurrent push/pop mirrors the Treiber test. *)
let test_elim_stack_width_adapts () =
  let s = Lockfree.Elimination_stack.create ~slots:8 () in
  Alcotest.(check bool) "width within bounds" true
    (Lockfree.Elimination_stack.elimination_width s >= 1
    && Lockfree.Elimination_stack.elimination_width s <= 8);
  let domains = 4 and per = 2_000 in
  let popped = Array.make domains 0 and pushed = Array.make domains 0 in
  let worker i () =
    let rng = Workload.Rng.create ~seed:7 ~stream:i in
    for v = 1 to per do
      if Workload.Rng.bool rng then begin
        Lockfree.Elimination_stack.push s v;
        pushed.(i) <- pushed.(i) + 1
      end
      else
        match Lockfree.Elimination_stack.pop s with
        | Some _ -> popped.(i) <- popped.(i) + 1
        | None -> ()
    done
  in
  let ds = List.init domains (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join ds;
  let total a = Array.fold_left ( + ) 0 a in
  Alcotest.(check int) "conservation"
    (total pushed - total popped)
    (Lockfree.Elimination_stack.length s);
  Alcotest.(check bool) "width still within bounds" true
    (Lockfree.Elimination_stack.elimination_width s >= 1
    && Lockfree.Elimination_stack.elimination_width s <= 8)

let () =
  Alcotest.run "exchanger"
    [
      ( "solo",
        [
          Alcotest.test_case "create" `Quick test_create;
          Alcotest.test_case "solo timeout" `Quick test_solo_timeout;
        ] );
      ( "pairing",
        [
          Alcotest.test_case "parked give fed by take" `Quick
            test_parked_give_fed_by_take;
          Alcotest.test_case "parked take fed by give" `Quick
            test_parked_take_fed_by_give;
          Alcotest.test_case "conservation" `Quick test_pairing_conservation;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "timeout counts as cancel" `Quick
            test_timeout_counts_as_cancel;
          Alcotest.test_case "kill while parked withdraws" `Quick
            test_kill_while_parked_withdraws;
          Alcotest.test_case "cancel/reclaim stress" `Quick
            test_cancel_reclaim_stress;
        ] );
      ( "integration",
        [
          Alcotest.test_case "elimination stack width" `Quick
            test_elim_stack_width_adapts;
        ] );
    ]
