(* Tests for the sharded elimination exchanger: single-thread offer
   mechanics, adaptive width bounds, cross-domain pairing, and the
   weak-stack cross-handle exchange built on it. *)

module E = Lockfree.Exchanger

(* Wait for another domain's parked give by polling with [try_take],
   which never parks: a parking [take] would make the giver's single
   probe race the take's own timeout, and a giver that loses that race
   returns without parking, leaving nothing to take. *)
let rec try_take_until x n =
  if n = 0 then None
  else
    match E.try_take x with
    | Some _ as r -> r
    | None ->
        Domain.cpu_relax ();
        try_take_until x (n - 1)

let test_create () =
  let x : int E.t = E.create ~capacity:4 () in
  Alcotest.(check int) "capacity" 4 (E.capacity x);
  Alcotest.(check int) "initial width" 2 (E.width x);
  Alcotest.(check int) "no exchanges yet" 0 (E.exchanged x);
  Alcotest.(check bool) "no takers" false (E.takers_waiting x);
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Exchanger.create: capacity <= 0") (fun () ->
      ignore (E.create ~capacity:0 () : int E.t));
  let one : int E.t = E.create ~capacity:1 () in
  Alcotest.(check int) "width clamped to capacity" 1 (E.width one)

(* Alone, nothing pairs: try_* never park, give/take park then withdraw. *)
let test_solo_timeout () =
  let x : int E.t = E.create () in
  Alcotest.(check bool) "try_give alone" false (E.try_give x 1);
  Alcotest.(check (option int)) "try_take alone" None (E.try_take x);
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
        E.give ~patience:1_000_000 x 42)
  in
  let got = try_take_until x 10_000_000 in
  Alcotest.(check bool) "give handed off" true (Domain.join d);
  Alcotest.(check (option int)) "take fed" (Some 42) got;
  Alcotest.(check int) "one exchange" 1 (E.exchanged x);
  Alcotest.(check bool) "no takers left" false (E.takers_waiting x)

let test_parked_take_fed_by_try_give () =
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
  (* Wait for the taker to park, as a producer polling takers_waiting. *)
  while not (E.takers_waiting x) do
    Domain.cpu_relax ()
  done;
  let rec feed n =
    if n = 0 then false
    else E.try_give x 7 || feed (n - 1)
  in
  Alcotest.(check bool) "try_give fed the taker" true (feed 1_000_000);
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

(* ---------------------------- width bounds --------------------------- *)

(* The Tune controller's knob: [set_width_bounds] clamps each side to
   [1..capacity], drags the other side along rather than inverting, and
   pulls the current width into the new range. *)
let test_bounds_clamp_and_pull () =
  let x : int E.t = E.create ~capacity:8 () in
  Alcotest.(check (pair int int)) "initial bounds" (1, 8) (E.width_bounds x);
  E.set_width_bounds ~max:2 x;
  Alcotest.(check (pair int int)) "max lowered" (1, 2) (E.width_bounds x);
  Alcotest.(check bool) "width pulled under new max" true (E.width x <= 2);
  E.set_width_bounds ~min:4 x;
  (* min 4 over max 2: the side being set drags the other. *)
  Alcotest.(check (pair int int)) "min drags max" (4, 4) (E.width_bounds x);
  Alcotest.(check int) "width pulled up" 4 (E.width x);
  E.set_width_bounds ~min:0 ~max:100 x;
  Alcotest.(check (pair int int)) "both sides clamped to 1..capacity" (1, 8)
    (E.width_bounds x);
  Alcotest.check_raises "explicit inverted pair rejected"
    (Invalid_argument "Exchanger.set_width_bounds: min > max") (fun () ->
      E.set_width_bounds ~min:5 ~max:3 x)

let test_bounds_drag_down () =
  let x : int E.t = E.create ~capacity:8 () in
  E.set_width_bounds ~min:6 x;
  Alcotest.(check (pair int int)) "min raised" (6, 8) (E.width_bounds x);
  E.set_width_bounds ~max:3 x;
  (* max 3 under min 6: dragging works in the other direction too. *)
  Alcotest.(check (pair int int)) "max drags min" (3, 3) (E.width_bounds x);
  Alcotest.(check int) "width pinned" 3 (E.width x)

(* Bounds stay coherent under concurrent retuning and live traffic: the
   packed word can never show a torn pair, and a final settling call
   pulls the width into whatever range won. *)
let test_bounds_concurrent () =
  let x : int E.t = E.create ~capacity:8 () in
  let iters = 2_000 in
  let tuner seed () =
    let rng = Workload.Rng.create ~seed ~stream:0xb0 in
    for _ = 1 to iters do
      let lo = 1 + Workload.Rng.below rng 8 in
      let hi = lo + Workload.Rng.below rng (9 - lo) in
      E.set_width_bounds ~min:lo ~max:hi x;
      let l, h = E.width_bounds x in
      if l > h || l < 1 || h > 8 then
        Alcotest.failf "torn or inverted bounds observed: (%d, %d)" l h
    done
  in
  let traffic i () =
    for v = 1 to iters do
      if i = 0 then ignore (E.give ~patience:(v mod 4) x v : bool)
      else ignore (E.take ~patience:(v mod 4) x : int option)
    done
  in
  let ds =
    Domain.spawn (tuner 11) :: Domain.spawn (tuner 23)
    :: List.init 2 (fun i -> Domain.spawn (traffic i))
  in
  List.iter Domain.join ds;
  (* A widen/narrow racing the last reclamp can leave width one move
     outside the final range; a settling call pulls it in. *)
  E.set_width_bounds x;
  let l, h = E.width_bounds x in
  Alcotest.(check bool) "final bounds sane" true (1 <= l && l <= h && h <= 8);
  Alcotest.(check bool) "width inside final bounds" true
    (E.width x >= l && E.width x <= h)

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
  let d = Domain.spawn (fun () -> E.give ~patience:1_000_000 x 9) in
  Alcotest.(check (option int)) "slot still pairs" (Some 9)
    (try_take_until x 10_000_000);
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
    (E.try_take x = None);
  Alcotest.(check int) "nothing exchanged" 0 (E.exchanged x);
  (* The dead partner left no residue: a live pair still meets. *)
  let d = Domain.spawn (fun () -> E.give ~patience:1_000_000 x 21) in
  Alcotest.(check (option int)) "live pair unaffected" (Some 21)
    (try_take_until x 10_000_000);
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
  Alcotest.(check (option int)) "no live residue" None (E.try_take x)

(* Cross-handle elimination on the weak stack: handle A's starving pops
   are fed by handle B's push flush through the shared exchanger. *)
let test_weak_stack_exchange () =
  let s = Fl.Weak_stack.create ~exchange:true () in
  let ha = Fl.Weak_stack.handle s in
  let consumer =
    Domain.spawn (fun () ->
        (* Pops on an empty shared stack: without exchange these all
           observe None; with a concurrent producer flushing, some are
           fed. Loop until one is. *)
        let fed = ref None in
        let tries = ref 0 in
        while !fed = None && !tries < 200 do
          incr tries;
          let fs = List.init 8 (fun _ -> Fl.Weak_stack.pop ha) in
          Fl.Weak_stack.flush ha;
          List.iter
            (fun f ->
              match Futures.Future.force f with
              | Some _ as r -> fed := r
              | None -> ())
            fs
        done;
        !fed)
  in
  let producer () =
    let hb = Fl.Weak_stack.handle s in
    let deadline = 200 in
    let rec go n =
      if n = 0 then ()
      else if Fl.Weak_stack.exchanged s > 0 then ()
      else begin
        let fs = List.init 8 (fun i -> Fl.Weak_stack.push hb (n + i)) in
        Fl.Weak_stack.flush hb;
        List.iter (fun f -> Futures.Future.force f) fs;
        go (n - 1)
      end
    in
    go deadline
  in
  producer ();
  let fed = Domain.join consumer in
  (* The producer keeps the shared stack non-empty too, so the consumer
     must have been satisfied one way or the other; if the exchanger
     engaged, the counter shows it. *)
  Alcotest.(check bool) "consumer satisfied" true (fed <> None);
  Alcotest.(check bool) "exchange count consistent" true
    (Fl.Weak_stack.exchanged s >= 0)

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
          Alcotest.test_case "parked take fed by try_give" `Quick
            test_parked_take_fed_by_try_give;
          Alcotest.test_case "conservation" `Quick test_pairing_conservation;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "clamp and pull" `Quick test_bounds_clamp_and_pull;
          Alcotest.test_case "drag down" `Quick test_bounds_drag_down;
          Alcotest.test_case "concurrent retuning" `Quick
            test_bounds_concurrent;
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
          Alcotest.test_case "weak-stack cross-handle exchange" `Quick
            test_weak_stack_exchange;
          Alcotest.test_case "elimination stack width" `Quick
            test_elim_stack_width_adapts;
        ] );
    ]
