(* Tests for the Harris lock-free list: set semantics, the position-resume
   API, per-call allocation of traversals, and multi-domain stress with
   invariant checks. *)

module Int_key = struct
  type t = int

  let compare = Int.compare
end

module H = Lockfree.Harris_list.Make (Int_key)
module KV = Lockfree.Harris_kv.Make (Int_key)

let test_set_semantics () =
  let l = H.create () in
  Alcotest.(check bool) "empty" true (H.is_empty l);
  Alcotest.(check bool) "insert 5" true (H.insert l 5);
  Alcotest.(check bool) "insert 5 dup" false (H.insert l 5);
  Alcotest.(check bool) "insert 1" true (H.insert l 1);
  Alcotest.(check bool) "insert 9" true (H.insert l 9);
  Alcotest.(check (list int)) "sorted" [ 1; 5; 9 ] (H.to_list l);
  Alcotest.(check bool) "contains 5" true (H.contains l 5);
  Alcotest.(check bool) "contains 2" false (H.contains l 2);
  Alcotest.(check bool) "remove 5" true (H.remove l 5);
  Alcotest.(check bool) "remove 5 again" false (H.remove l 5);
  Alcotest.(check bool) "contains removed" false (H.contains l 5);
  Alcotest.(check (list int)) "after remove" [ 1; 9 ] (H.to_list l);
  Alcotest.(check int) "length" 2 (H.length l)

let test_remove_head_and_tail () =
  let l = H.create () in
  List.iter (fun k -> ignore (H.insert l k)) [ 1; 2; 3 ];
  Alcotest.(check bool) "remove head" true (H.remove l 1);
  Alcotest.(check bool) "remove tail" true (H.remove l 3);
  Alcotest.(check (list int)) "middle left" [ 2 ] (H.to_list l);
  Alcotest.(check bool) "remove last" true (H.remove l 2);
  Alcotest.(check bool) "empty" true (H.is_empty l);
  Alcotest.(check bool) "reinsert after empty" true (H.insert l 2)

let test_positions_ascending () =
  let l = H.create () in
  List.iter (fun k -> ignore (H.insert l k)) [ 10; 20; 30; 40; 50 ];
  let pos = H.head_position l in
  let r1, pos = H.contains_from l pos 10 in
  Alcotest.(check bool) "10 present" true r1;
  let r2, pos = H.insert_from l pos 25 in
  Alcotest.(check bool) "insert 25" true r2;
  let r3, pos = H.remove_from l pos 30 in
  Alcotest.(check bool) "remove 30" true r3;
  let r4, pos = H.contains_from l pos 45 in
  Alcotest.(check bool) "45 absent" false r4;
  let r5, _ = H.contains_from l pos 50 in
  Alcotest.(check bool) "50 present" true r5;
  Alcotest.(check (list int)) "final" [ 10; 20; 25; 40; 50 ] (H.to_list l)

let test_position_same_key_twice () =
  let l = H.create () in
  let pos = H.head_position l in
  let r1, pos = H.insert_from l pos 7 in
  let r2, pos = H.remove_from l pos 7 in
  let r3, pos = H.insert_from l pos 7 in
  let r4, _ = H.contains_from l pos 7 in
  Alcotest.(check (list bool)) "sequence" [ true; true; true; true ]
    [ r1; r2; r3; r4 ]

let test_stale_position_falls_back () =
  let l = H.create () in
  List.iter (fun k -> ignore (H.insert l k)) [ 10; 20; 30 ];
  (* Get a position pointing just before 20, then delete 10 and 20 and
     re-insert 20: the stale position must not hide the fresh node. *)
  let _, pos = H.contains_from l (H.head_position l) 20 in
  ignore (H.remove l 10);
  ignore (H.remove l 20);
  ignore (H.insert l 20);
  let present, _ = H.contains_from l pos 20 in
  Alcotest.(check bool) "sees re-inserted key" true present

(* A position's link goes m -> x -> m (insert x, then remove it) before
   the position is used again. CAS compares node pointers, so the old
   successor m is a valid expected value again, and operations through
   the position must see exactly the live list. Covers the head cell and
   an interior node's cell. *)
let test_position_aba () =
  let l = H.create () in
  List.iter (fun k -> ignore (H.insert l k)) [ 10; 30 ];
  let head = H.head_position l in
  let _, pos = H.contains_from l head 30 in
  (* pos is 10's cell; its link is the node of 30. *)
  Alcotest.(check bool) "insert x = 20" true (H.insert l 20);
  Alcotest.(check bool) "remove x = 20" true (H.remove l 20);
  let r1, pos = H.insert_from l pos 25 in
  Alcotest.(check bool) "insert 25 through pos" true r1;
  Alcotest.(check bool) "insert x = 27" true (H.insert l 27);
  Alcotest.(check bool) "remove x = 27" true (H.remove l 27);
  let r2, _ = H.remove_from l pos 30 in
  Alcotest.(check bool) "remove 30 through pos" true r2;
  (* The head's link goes 10 -> 5 -> 10. *)
  Alcotest.(check bool) "insert x = 5" true (H.insert l 5);
  Alcotest.(check bool) "remove x = 5" true (H.remove l 5);
  let r3, _ = H.insert_from l head 7 in
  Alcotest.(check bool) "insert 7 through head" true r3;
  Alcotest.(check bool) "insert x = 8" true (H.insert l 8);
  Alcotest.(check bool) "remove x = 8" true (H.remove l 8);
  let r4, _ = H.remove_from l head 7 in
  Alcotest.(check bool) "remove 7 through head" true r4;
  Alcotest.(check (list int)) "final" [ 10; 25 ] (H.to_list l)

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

(* A traversal allocates nothing per hop: a lookup of the last key (and
   of a key past it) costs the same small constant on a 10-node list as
   on a 1,000-node one, for the set and for the map. *)
let test_traversal_allocation () =
  let measure n =
    let l = H.create () and m = KV.create () in
    for k = 0 to n - 1 do
      ignore (H.insert l (2 * k));
      ignore (KV.insert m (2 * k) k)
    done;
    let last = 2 * (n - 1) in
    let lookups f () =
      ignore (Sys.opaque_identity (f last));
      ignore (Sys.opaque_identity (f (last + 1)))
    in
    [
      ("contains", words_per_call (lookups (H.contains l)));
      ( "contains_from",
        words_per_call (lookups (H.contains_from l (H.head_position l))) );
      ("find_from", words_per_call (lookups (KV.find_from m (KV.head_position m))));
    ]
  in
  List.iter2
    (fun (name, small) (_, large) ->
      Alcotest.(check (float 0.01))
        (Printf.sprintf "%s: 1,000 nodes allocate like 10 nodes" name)
        small large;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f words per two lookups within budget" name
           large)
        true (large <= 24.0))
    (measure 10) (measure 1_000)

let test_boundary_keys () =
  let l = H.create () in
  Alcotest.(check bool) "min_int" true (H.insert l min_int);
  Alcotest.(check bool) "max_int" true (H.insert l max_int);
  Alcotest.(check bool) "zero" true (H.insert l 0);
  Alcotest.(check (list int)) "sorted" [ min_int; 0; max_int ] (H.to_list l)

let prop_model =
  QCheck.Test.make ~name:"harris matches Set model (sequential)" ~count:400
    QCheck.(list (pair (int_bound 2) (int_bound 40)))
    (fun script ->
      let module IS = Set.Make (Int) in
      let l = H.create () in
      let model = ref IS.empty in
      List.for_all
        (fun (kind, k) ->
          match kind with
          | 0 ->
              let expected = not (IS.mem k !model) in
              model := IS.add k !model;
              H.insert l k = expected
          | 1 ->
              let expected = IS.mem k !model in
              model := IS.remove k !model;
              H.remove l k = expected
          | _ -> H.contains l k = IS.mem k !model)
        script
      && H.to_list l = IS.elements !model)

(* Disjoint key ranges: each domain owns a key range; at the end each
   domain's final local model must match the shared list's restriction to
   its range (operations on disjoint ranges don't interfere). *)
let test_parallel_disjoint_ranges () =
  let l = H.create () in
  let domains = 4 and range = 64 and ops = 4_000 in
  let finals = Array.make domains [] in
  let worker i () =
    let module IS = Set.Make (Int) in
    let rng = Workload.Rng.create ~seed:7 ~stream:i in
    let base = i * range in
    let model = ref IS.empty in
    for _ = 1 to ops do
      let k = base + Workload.Rng.below rng range in
      match Workload.Rng.below rng 3 with
      | 0 ->
          let expected = not (IS.mem k !model) in
          model := IS.add k !model;
          assert (H.insert l k = expected)
      | 1 ->
          let expected = IS.mem k !model in
          model := IS.remove k !model;
          assert (H.remove l k = expected)
      | _ -> assert (H.contains l k = IS.mem k !model)
    done;
    finals.(i) <- IS.elements !model
  in
  let ds = List.init domains (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join ds;
  let contents = H.to_list l in
  for i = 0 to domains - 1 do
    let base = i * range in
    let mine = List.filter (fun k -> k >= base && k < base + range) contents in
    Alcotest.(check (list int))
      (Printf.sprintf "domain %d range" i)
      finals.(i) mine
  done;
  (* sortedness of the full snapshot *)
  Alcotest.(check (list int)) "snapshot sorted"
    (List.sort_uniq compare contents)
    contents

(* Contended single key: concurrent inserts/removes of one key; the number
   of successful inserts and removes may differ by at most ... and final
   presence must agree with the balance. *)
let test_parallel_single_key_balance () =
  let l = H.create () in
  let domains = 4 and ops = 3_000 in
  let inserts = Array.make domains 0 and removes = Array.make domains 0 in
  let worker i () =
    let rng = Workload.Rng.create ~seed:11 ~stream:i in
    for _ = 1 to ops do
      if Workload.Rng.bool rng then begin
        if H.insert l 42 then inserts.(i) <- inserts.(i) + 1
      end
      else if H.remove l 42 then removes.(i) <- removes.(i) + 1
    done
  in
  let ds = List.init domains (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join ds;
  let ins = Array.fold_left ( + ) 0 inserts in
  let rem = Array.fold_left ( + ) 0 removes in
  let present = H.contains l 42 in
  (* Successful inserts and removes of one key strictly alternate, so
     ins - rem is 1 if present else 0. *)
  Alcotest.(check int) "alternation balance" (if present then 1 else 0)
    (ins - rem)

(* Position-resumed application of a key-sorted script must agree with
   plain from-the-head operations. *)
let prop_positions_equal_plain =
  QCheck.Test.make ~name:"position API == plain ops on sorted scripts"
    ~count:300
    QCheck.(
      pair (list (int_bound 30)) (list (pair (int_bound 2) (int_bound 30))))
    (fun (init, script) ->
      let sorted =
        List.stable_sort (fun (_, k1) (_, k2) -> compare k1 k2) script
      in
      let build () =
        let l = H.create () in
        List.iter (fun k -> ignore (H.insert l k)) init;
        l
      in
      let l1 = build () and l2 = build () in
      let _, r1 =
        List.fold_left
          (fun (pos, acc) (kind, k) ->
            let r, pos' =
              match kind with
              | 0 -> H.insert_from l1 pos k
              | 1 -> H.remove_from l1 pos k
              | _ -> H.contains_from l1 pos k
            in
            (pos', r :: acc))
          (H.head_position l1, [])
          sorted
      in
      let r2 =
        List.rev_map
          (fun (kind, k) ->
            match kind with
            | 0 -> H.insert l2 k
            | 1 -> H.remove l2 k
            | _ -> H.contains l2 k)
          sorted
      in
      r1 = r2 && H.to_list l1 = H.to_list l2)

(* Overlapping key range under full contention: for every key, successful
   inserts and removes alternate, so their difference is exactly the final
   presence (0 or 1). *)
let test_parallel_per_key_balance () =
  let l = H.create () in
  let domains = 4 and ops = 2_500 and range = 16 in
  let inserts = Array.init domains (fun _ -> Array.make range 0) in
  let removes = Array.init domains (fun _ -> Array.make range 0) in
  let worker i () =
    let rng = Workload.Rng.create ~seed:23 ~stream:i in
    for _ = 1 to ops do
      let k = Workload.Rng.below rng range in
      if Workload.Rng.bool rng then begin
        if H.insert l k then inserts.(i).(k) <- inserts.(i).(k) + 1
      end
      else if H.remove l k then removes.(i).(k) <- removes.(i).(k) + 1
    done
  in
  let ds = List.init domains (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join ds;
  let contents = H.to_list l in
  for k = 0 to range - 1 do
    let ins = Array.fold_left (fun a per -> a + per.(k)) 0 inserts in
    let rem = Array.fold_left (fun a per -> a + per.(k)) 0 removes in
    let present = List.mem k contents in
    Alcotest.(check int)
      (Printf.sprintf "key %d balance" k)
      (if present then 1 else 0)
      (ins - rem)
  done

(* Readers racing writers never crash or return out-of-thin-air answers;
   sortedness of every snapshot is preserved. *)
let test_parallel_snapshot_sorted () =
  let l = H.create () in
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let rng = Workload.Rng.create ~seed:31 ~stream:0 in
        for _ = 1 to 20_000 do
          let k = Workload.Rng.below rng 64 in
          if Workload.Rng.bool rng then ignore (H.insert l k)
          else ignore (H.remove l k)
        done;
        Atomic.set stop true)
  in
  let sorted_violations = ref 0 in
  while not (Atomic.get stop) do
    let snap = H.to_list l in
    if List.sort_uniq compare snap <> snap then incr sorted_violations
  done;
  Domain.join writer;
  Alcotest.(check int) "snapshots always sorted" 0 !sorted_violations

let () =
  Alcotest.run "lockfree-list"
    [
      ( "sequential",
        [
          Alcotest.test_case "set semantics" `Quick test_set_semantics;
          Alcotest.test_case "remove head/tail" `Quick
            test_remove_head_and_tail;
          Alcotest.test_case "positions ascending" `Quick
            test_positions_ascending;
          Alcotest.test_case "same key via positions" `Quick
            test_position_same_key_twice;
          Alcotest.test_case "stale position fallback" `Quick
            test_stale_position_falls_back;
          Alcotest.test_case "position link ABA" `Quick test_position_aba;
          Alcotest.test_case "boundary keys" `Quick test_boundary_keys;
          Alcotest.test_case "traversal allocation budget" `Quick
            test_traversal_allocation;
          QCheck_alcotest.to_alcotest prop_model;
          QCheck_alcotest.to_alcotest prop_positions_equal_plain;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "disjoint ranges (4 domains)" `Slow
            test_parallel_disjoint_ranges;
          Alcotest.test_case "single-key balance (4 domains)" `Slow
            test_parallel_single_key_balance;
          Alcotest.test_case "per-key balance (4 domains)" `Slow
            test_parallel_per_key_balance;
          Alcotest.test_case "snapshots stay sorted (2 domains)" `Slow
            test_parallel_snapshot_sorted;
        ] );
    ]
