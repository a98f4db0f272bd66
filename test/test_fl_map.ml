(* Tests for the key/value substrate (Harris_kv) and the weak-FL map
   extension, including checker-verified concurrent rounds. *)

module Future = Futures.Future

module Int_key = struct
  type t = int

  let compare = Int.compare
end

module KV = Lockfree.Harris_kv.Make (Int_key)
module WM = Fl.Weak_map.Make (Int_key)
module MSpec = Lin.Spec.Map_spec
module CM = Lin.Checker.Make (MSpec)
module H = Lin.History

let force = Future.force

(* ---------------------------- Harris_kv ----------------------------- *)

let test_kv_basics () =
  let m = KV.create () in
  Alcotest.(check bool) "empty" true (KV.is_empty m);
  Alcotest.(check bool) "insert 1" true (KV.insert m 1 "one");
  Alcotest.(check bool) "bind-once" false (KV.insert m 1 "uno");
  Alcotest.(check (option string)) "find keeps first" (Some "one")
    (KV.find m 1);
  Alcotest.(check (option string)) "find absent" None (KV.find m 2);
  Alcotest.(check bool) "insert 0" true (KV.insert m 0 "zero");
  Alcotest.(check bool) "insert 7" true (KV.insert m 7 "seven");
  Alcotest.(check (list (pair int string)))
    "sorted bindings"
    [ (0, "zero"); (1, "one"); (7, "seven") ]
    (KV.bindings m);
  Alcotest.(check (option string)) "remove" (Some "one") (KV.remove m 1);
  Alcotest.(check (option string)) "remove again" None (KV.remove m 1);
  Alcotest.(check int) "size" 2 (KV.size m)

let test_kv_positions () =
  let m = KV.create () in
  List.iter (fun k -> ignore (KV.insert m k (k * 10))) [ 1; 3; 5; 7 ];
  let pos = KV.head_position m in
  let r1, pos = KV.find_from m pos 1 in
  Alcotest.(check (option int)) "find 1" (Some 10) r1;
  let created, pos = KV.insert_from m pos 4 40 in
  Alcotest.(check bool) "insert 4" true created;
  let r2, pos = KV.remove_from m pos 5 in
  Alcotest.(check (option int)) "remove 5" (Some 50) r2;
  let r3, _ = KV.find_from m pos 7 in
  Alcotest.(check (option int)) "find 7" (Some 70) r3;
  Alcotest.(check (list (pair int int)))
    "final"
    [ (1, 10); (3, 30); (4, 40); (7, 70) ]
    (KV.bindings m)

let prop_kv_model =
  QCheck.Test.make ~name:"harris_kv matches Map model (sequential)"
    ~count:400
    QCheck.(list (pair (int_bound 2) (pair (int_bound 20) (int_bound 100))))
    (fun script ->
      let module IM = Map.Make (Int) in
      let m = KV.create () in
      let model = ref IM.empty in
      List.for_all
        (fun (kind, (k, v)) ->
          match kind with
          | 0 ->
              let fresh = not (IM.mem k !model) in
              if fresh then model := IM.add k v !model;
              KV.insert m k v = fresh
          | 1 ->
              let expected = IM.find_opt k !model in
              model := IM.remove k !model;
              KV.remove m k = expected
          | _ -> KV.find m k = IM.find_opt k !model)
        script
      && KV.bindings m = IM.bindings !model)

let test_kv_parallel_disjoint () =
  let m = KV.create () in
  let domains = 4 and range = 32 and ops = 3_000 in
  let finals = Array.make domains [] in
  let worker i () =
    let module IM = Map.Make (Int) in
    let rng = Workload.Rng.create ~seed:3 ~stream:i in
    let base = i * range in
    let model = ref IM.empty in
    for _ = 1 to ops do
      let k = base + Workload.Rng.below rng range in
      let v = Workload.Rng.below rng 1000 in
      match Workload.Rng.below rng 3 with
      | 0 ->
          let fresh = not (IM.mem k !model) in
          if fresh then model := IM.add k v !model;
          assert (KV.insert m k v = fresh)
      | 1 ->
          let expected = IM.find_opt k !model in
          model := IM.remove k !model;
          assert (KV.remove m k = expected)
      | _ -> assert (KV.find m k = IM.find_opt k !model)
    done;
    finals.(i) <- IM.bindings !model
  in
  let ds = List.init domains (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join ds;
  let all = KV.bindings m in
  for i = 0 to domains - 1 do
    let base = i * range in
    let mine =
      List.filter (fun (k, _) -> k >= base && k < base + range) all
    in
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "domain %d slice" i)
      finals.(i) mine
  done

(* Same keys under full contention, through positions as the FL maps use
   them: for every key, successful inserts and removes alternate, so
   their difference is exactly the final presence; and every value a
   remove or find returns was bound to that key (values encode their
   key in their low bits). *)
let test_kv_parallel_same_keys () =
  let m = KV.create () in
  let domains = 2 and keys = 4 and ops = 50_000 in
  let inserts = Array.init domains (fun _ -> Array.make keys 0) in
  let removes = Array.init domains (fun _ -> Array.make keys 0) in
  let worker i () =
    let rng = Workload.Rng.create ~seed:41 ~stream:i in
    let pos = ref (KV.head_position m) and last = ref (-1) in
    for n = 1 to ops do
      let k = Workload.Rng.below rng keys in
      let start = if k >= !last then !pos else KV.head_position m in
      let check_key = function
        | Some v -> assert (v land 3 = k)
        | None -> ()
      in
      let pos' =
        match Workload.Rng.below rng 3 with
        | 0 ->
            let created, p = KV.insert_from m start k ((n lsl 2) lor k) in
            if created then inserts.(i).(k) <- inserts.(i).(k) + 1;
            p
        | 1 ->
            let r, p = KV.remove_from m start k in
            check_key r;
            if Option.is_some r then removes.(i).(k) <- removes.(i).(k) + 1;
            p
        | _ ->
            let r, p = KV.find_from m start k in
            check_key r;
            p
      in
      pos := pos';
      last := k
    done
  in
  let ds = List.init domains (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join ds;
  let all = KV.bindings m in
  for k = 0 to keys - 1 do
    let ins = Array.fold_left (fun a per -> a + per.(k)) 0 inserts in
    let rem = Array.fold_left (fun a per -> a + per.(k)) 0 removes in
    Alcotest.(check int)
      (Printf.sprintf "key %d balance" k)
      (if List.mem_assoc k all then 1 else 0)
      (ins - rem)
  done;
  Alcotest.(check bool) "values match keys" true
    (List.for_all (fun (k, v) -> v land 3 = k) all)

(* ----------------------------- Weak_map ----------------------------- *)

let test_map_basic () =
  let m = WM.create () in
  let h = WM.handle m in
  let f1 = WM.insert h 5 50 in
  let f2 = WM.find h 5 in
  let f3 = WM.insert h 5 55 in
  let f4 = WM.remove h 5 in
  Alcotest.(check int) "pending" 4 (WM.pending_count h);
  Alcotest.(check bool) "created" true (force f1);
  Alcotest.(check (option int)) "found" (Some 50) (force f2);
  Alcotest.(check bool) "bind-once refused" false (force f3);
  Alcotest.(check (option int)) "removed original" (Some 50) (force f4);
  Alcotest.(check int) "drained" 0 (WM.pending_count h);
  Alcotest.(check bool) "shared empty" true (KV.is_empty (WM.shared m))

let test_map_bulk_sorted_application () =
  let m = WM.create () in
  let h = WM.handle m in
  let keys = [ 9; 1; 5; 3; 7 ] in
  let fs = List.map (fun k -> WM.insert h k (k * 100)) keys in
  WM.flush h;
  List.iter (fun f -> Alcotest.(check bool) "created" true (force f)) fs;
  Alcotest.(check (list (pair int int)))
    "ascending"
    [ (1, 100); (3, 300); (5, 500); (7, 700); (9, 900) ]
    (KV.bindings (WM.shared m))

let test_map_find_batch () =
  let m = WM.create () in
  ignore (KV.insert (WM.shared m) 2 20);
  ignore (KV.insert (WM.shared m) 4 40);
  let h = WM.handle m in
  let fs = List.map (fun k -> WM.find h k) [ 4; 1; 2 ] in
  WM.flush h;
  Alcotest.(check (list (option int)))
    "batched lookups"
    [ Some 40; None; Some 20 ]
    (List.map force fs)

(* A cancelled op is withdrawn before the window is applied: it never
   binds its key, the flush does not raise, and the op after it in the
   window is still applied. *)
let test_map_cancel_withdrawn () =
  let m = WM.create () in
  let h = WM.handle m in
  let f1 = WM.insert h 1 "a" in
  let f2 = WM.insert h 2 "b" in
  Alcotest.(check bool) "cancel wins" true (Future.cancel f1);
  WM.flush h;
  Alcotest.(check bool) "survivor applied" true (force f2);
  Alcotest.check_raises "cancelled op raises" Future.Cancelled (fun () ->
      ignore (force f1));
  Alcotest.(check (list (pair int string)))
    "cancelled key never bound"
    [ (2, "b") ]
    (KV.bindings (WM.shared m));
  Alcotest.(check int) "window empty" 0 (WM.pending_count h)

let prop_map_model =
  QCheck.Test.make ~name:"weak map matches model with random slack"
    ~count:200
    QCheck.(
      pair
        (list (pair (int_bound 2) (pair (int_bound 15) (int_bound 50))))
        (int_bound 7))
    (fun (script, slack_minus_1) ->
      let module IM = Map.Make (Int) in
      let m = WM.create () in
      let h = WM.handle m in
      let sl = Fl.Slack.create (slack_minus_1 + 1) in
      let model = ref IM.empty in
      let ok = ref true in
      List.iter
        (fun (kind, (k, v)) ->
          match kind with
          | 0 ->
              let fresh = not (IM.mem k !model) in
              if fresh then model := IM.add k v !model;
              let f = WM.insert h k v in
              Fl.Slack.note sl (fun () ->
                  if Future.force f <> fresh then ok := false)
          | 1 ->
              let expected = IM.find_opt k !model in
              model := IM.remove k !model;
              let f = WM.remove h k in
              Fl.Slack.note sl (fun () ->
                  if Future.force f <> expected then ok := false)
          | _ ->
              let expected = IM.find_opt k !model in
              let f = WM.find h k in
              Fl.Slack.note sl (fun () ->
                  if Future.force f <> expected then ok := false))
        script;
      Fl.Slack.drain sl;
      WM.flush h;
      !ok && KV.bindings (WM.shared m) = IM.bindings !model)

(* Checker-verified concurrent rounds (weak-FL), in the style of the
   Conformance library but for the map's three operations. *)
let record_map_round ~seed =
  let threads = 3 and per_thread = 5 in
  let m = WM.create () in
  let clock = H.clock () in
  let logs = Array.init threads (fun _ -> H.log ()) in
  let barrier = Sync.Barrier.create threads in
  let worker i () =
    let h = WM.handle m in
    let rng = Workload.Rng.create ~seed ~stream:i in
    let pending = ref [] in
    let flush () =
      List.iter (fun k -> k ()) !pending;
      pending := []
    in
    Sync.Barrier.wait barrier;
    for _ = 1 to per_thread do
      let k = Workload.Rng.below rng 4 in
      (match Workload.Rng.below rng 3 with
      | 0 ->
          let v = Workload.Rng.below rng 100 in
          let _, c =
            H.recorded_call logs.(i) clock ~thread:i ~obj:0 (fun () ->
                WM.insert h k v)
          in
          pending :=
            (fun () -> ignore (c (fun r -> MSpec.Insert (k, v, r))))
            :: !pending
      | 1 ->
          let _, c =
            H.recorded_call logs.(i) clock ~thread:i ~obj:0 (fun () ->
                WM.remove h k)
          in
          pending :=
            (fun () -> ignore (c (fun r -> MSpec.Remove (k, r)))) :: !pending
      | _ ->
          let _, c =
            H.recorded_call logs.(i) clock ~thread:i ~obj:0 (fun () ->
                WM.find h k)
          in
          pending :=
            (fun () -> ignore (c (fun r -> MSpec.Find (k, r)))) :: !pending);
      if Workload.Rng.below rng 3 = 0 then flush ()
    done;
    flush ();
    WM.flush h
  in
  let ds = List.init threads (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join ds;
  H.merge (Array.to_list logs)

let test_map_weak_fl_checked () =
  for seed = 1 to 8 do
    let h = record_map_round ~seed in
    if not (CM.check Lin.Order.Weak h) then begin
      Format.printf "%a" CM.pp_history h;
      Alcotest.fail (Printf.sprintf "map round %d not weak-FL" seed)
    end
  done

let test_map_conservation_parallel () =
  let m = WM.create () in
  let domains = 4 and ops = 1_500 in
  let created = Array.make domains 0 and removed = Array.make domains 0 in
  let worker i () =
    let h = WM.handle m in
    let rng = Workload.Rng.create ~seed:9 ~stream:i in
    let sl = Fl.Slack.create 10 in
    for n = 1 to ops do
      let k = Workload.Rng.below rng 64 in
      if Workload.Rng.bool rng then begin
        let f = WM.insert h k n in
        Fl.Slack.note sl (fun () ->
            if Future.force f then created.(i) <- created.(i) + 1)
      end
      else
        let f = WM.remove h k in
        Fl.Slack.note sl (fun () ->
            if Future.force f <> None then removed.(i) <- removed.(i) + 1)
    done;
    Fl.Slack.drain sl;
    WM.flush h
  in
  let ds = List.init domains (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join ds;
  let ins = Array.fold_left ( + ) 0 created in
  let rem = Array.fold_left ( + ) 0 removed in
  Alcotest.(check int) "created - removed = live bindings" (ins - rem)
    (KV.size (WM.shared m))

(* Two domains race to bind the same key. Bind-once means exactly one
   insert future resolves [true] per round, and once both flushes are
   done every lookup — including the loser's — observes the winner's
   value. The per-round fresh map keeps rounds independent, so a single
   lost race pins the failing round number. *)
let test_map_bind_once_race () =
  let rounds = 50 in
  for round = 1 to rounds do
    let m = WM.create () in
    let barrier = Sync.Barrier.create 2 in
    let racer i () =
      let h = WM.handle m in
      Sync.Barrier.wait barrier;
      let won = WM.insert h 7 (100 + i) in
      WM.flush h;
      let seen = WM.find h 7 in
      WM.flush h;
      (force won, force seen)
    in
    let d0 = Domain.spawn (racer 0) in
    let d1 = Domain.spawn (racer 1) in
    let won0, seen0 = Domain.join d0 in
    let won1, seen1 = Domain.join d1 in
    let tag msg = Printf.sprintf "round %d: %s" round msg in
    Alcotest.(check bool) (tag "exactly one bind wins") true (won0 <> won1);
    let winner = if won0 then 100 else 101 in
    Alcotest.(check (option int))
      (tag "domain 0 observes the winner")
      (Some winner) seen0;
    Alcotest.(check (option int))
      (tag "domain 1 observes the winner")
      (Some winner) seen1;
    Alcotest.(check (option int))
      (tag "shared store holds the winner")
      (Some winner)
      (KV.find (WM.shared m) 7)
  done

(* --------------------- abandon / orphan recovery --------------------- *)

(* A worker dies with inserts pending and its handle never flushed; its
   registered abandon hook (the handle's [abandon]) must poison exactly
   those futures with [Orphaned] — fail fast, never hang — and discard
   the window un-applied, so the dead worker's keys stay unbound and the
   bind-once invariant survives into post-recovery use. *)
let orphan_ops = 5

let test_map_abandon_under_kill () =
  Fun.protect ~finally:Faults.clear_all @@ fun () ->
  Faults.clear_all ();
  let m = WM.create () in
  let victim_futs = Array.make orphan_ops None in
  Faults.on "map.victim" (fun _ -> Faults.Kill);
  let worker () ~thread ~ops =
    let h = WM.handle m in
    Workload.Runner.set_abandon_hook (fun () -> WM.abandon h);
    if thread = 0 then begin
      for j = 0 to orphan_ops - 1 do
        victim_futs.(j) <- Some (WM.insert h (100 + j) j)
      done;
      Faults.point "map.victim";
      Alcotest.fail "victim survived its kill"
    end
    else begin
      for n = 1 to ops do
        Workload.Runner.heartbeat ();
        ignore (WM.insert h ((thread * 1000) + n) n : bool Future.t)
      done;
      WM.flush h
    end
  in
  let r =
    Workload.Runner.run ~threads:3 ~repeats:1 ~ops_per_thread:50
      ~setup:(fun () -> ())
      ~worker ~watchdog:0.002 ()
  in
  Alcotest.(check int) "victim killed" 1 r.Workload.Runner.killed;
  Alcotest.(check int) "no unexplained failures" 0
    r.Workload.Runner.suppressed_failures;
  Alcotest.(check bool) "runner recovered the dead worker" true
    (r.Workload.Runner.recovered >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "all %d orphans poisoned (got %d)" orphan_ops
       r.Workload.Runner.poisoned)
    true
    (r.Workload.Runner.poisoned >= orphan_ops);
  Array.iteri
    (fun j f ->
      match f with
      | None -> Alcotest.failf "victim future %d never published" j
      | Some f ->
          Alcotest.check_raises
            (Printf.sprintf "orphan %d raises" j)
            (Future.Broken Future.Orphaned)
            (fun () -> ignore (Future.force f : bool));
          Alcotest.(check bool)
            (Printf.sprintf "orphan %d poisoned" j)
            true (Future.is_poisoned f))
    victim_futs;
  (* The discarded window never touched the shared list: the victim's
     keys are unbound, and bind-once still works on them afterwards. *)
  for j = 0 to orphan_ops - 1 do
    Alcotest.(check (option int))
      (Printf.sprintf "victim key %d never bound" (100 + j))
      None
      (KV.find (WM.shared m) (100 + j))
  done;
  let h = WM.handle m in
  let fresh = WM.insert h 100 42 in
  let dup = WM.insert h 100 43 in
  WM.flush h;
  Alcotest.(check bool) "post-recovery bind succeeds" true (force fresh);
  Alcotest.(check bool) "bind-once refusal survives recovery" false
    (force dup);
  (* Survivors' batches all landed. *)
  Alcotest.(check int) "survivor bindings intact" (2 * 50)
    (List.length
       (List.filter (fun (k, _) -> k >= 1000) (KV.bindings (WM.shared m))))

let () =
  Alcotest.run "fl-map"
    [
      ( "harris-kv",
        [
          Alcotest.test_case "basics" `Quick test_kv_basics;
          Alcotest.test_case "positions" `Quick test_kv_positions;
          QCheck_alcotest.to_alcotest prop_kv_model;
          Alcotest.test_case "disjoint ranges (4 domains)" `Slow
            test_kv_parallel_disjoint;
          Alcotest.test_case "same keys 0..3 (2 domains)" `Slow
            test_kv_parallel_same_keys;
        ] );
      ( "weak-map",
        [
          Alcotest.test_case "basic" `Quick test_map_basic;
          Alcotest.test_case "bulk sorted application" `Quick
            test_map_bulk_sorted_application;
          Alcotest.test_case "batched lookups" `Quick test_map_find_batch;
          QCheck_alcotest.to_alcotest prop_map_model;
          Alcotest.test_case "weak-FL (checked, 3 domains)" `Slow
            test_map_weak_fl_checked;
          Alcotest.test_case "conservation (4 domains)" `Slow
            test_map_conservation_parallel;
          Alcotest.test_case "bind-once race (2 domains)" `Slow
            test_map_bind_once_race;
          Alcotest.test_case "abandon under runner kill (3 domains)" `Slow
            test_map_abandon_under_kill;
          Alcotest.test_case "cancelled op withdrawn" `Quick
            test_map_cancel_withdrawn;
        ] );
    ]
