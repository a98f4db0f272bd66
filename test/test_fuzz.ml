(* Tests for the conformance fuzzer: deterministic generation, repro
   round-trips, the segmented checker against the plain exact checker,
   the oracle targets, the kill-plan guard, and the end-to-end gauntlet
   the CI fuzz-smoke job relies on — the intentionally-too-strong check
   (weak stack against Medium) must fail, shrink small, and replay. *)

module P = Fuzz.Program
module Pl = Fuzz.Plan
module R = Fuzz.Repro
module E = Fuzz.Exec
module D = Fuzz.Driver
module H = Lin.History
module QSpec = Lin.Spec.Queue_spec
module CQ = Lin.Checker.Make (QSpec)

let kinds = [ P.Stack; P.Queue; P.Set; P.Map; P.Multi ]

(* ------------------------- generation ------------------------------- *)

let test_program_deterministic () =
  List.iter
    (fun kind ->
      let name = P.kind_name kind in
      let a = P.generate kind ~seed:42 and b = P.generate kind ~seed:42 in
      Alcotest.(check bool) (name ^ ": same seed, same program") true (a = b);
      let c = P.generate kind ~seed:43 in
      Alcotest.(check bool) (name ^ ": different seed differs") true (a <> c);
      Alcotest.(check bool)
        (name ^ ": records some ops")
        true
        (P.recorded_ops a > 0))
    kinds

let test_program_cap () =
  let huge = P.{ threads = 100; phases = 100; steps = 1000 } in
  let capped = P.cap huge in
  Alcotest.(check bool) "threads capped" true (capped.P.threads <= 8);
  Alcotest.(check bool) "phases capped" true (capped.P.phases <= 8);
  Alcotest.(check bool)
    "phase fits the exact-search bound" true
    (capped.P.threads * capped.P.steps <= 62);
  let p = P.generate ~size:huge P.Stack ~seed:1 in
  List.iter
    (fun phase ->
      let ops =
        Array.fold_left
          (fun acc steps ->
            acc
            + List.length (List.filter (fun s -> s.P.op <> P.Force) steps))
          0 phase
      in
      Alcotest.(check bool) "recorded ops per phase ≤ 62" true (ops <= 62))
    p.P.phases

let test_plan_deterministic () =
  let a = Pl.generate ~seed:7 () and b = Pl.generate ~seed:7 () in
  Alcotest.(check bool) "same seed, same plan" true (a = b);
  Alcotest.(check bool) "different seed differs" true
    (a <> Pl.generate ~seed:8 ());
  Alcotest.(check bool) "stall plans never kill" true (not (Pl.has_kills a));
  List.iter
    (fun (s : Faults.plan_step) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s is a stall point" s.Faults.pt)
        true
        (List.mem s.Faults.pt Pl.stall_points))
    a

let test_plan_kills_confined () =
  (* Over many seeds, kill actions appear and only ever at the
     flat-combining lease points. *)
  let saw_kill = ref false in
  for seed = 1 to 40 do
    List.iter
      (fun (s : Faults.plan_step) ->
        if s.Faults.act = Faults.Kill then begin
          saw_kill := true;
          Alcotest.(check bool)
            (Printf.sprintf "kill confined to lease points (%s)" s.Faults.pt)
            true
            (List.mem s.Faults.pt Pl.kill_points)
        end)
      (Pl.generate ~kills:true ~seed ())
  done;
  Alcotest.(check bool) "kills do get generated" true !saw_kill

(* With a dry run's reach, kill steps go only to points the run hit,
   at hit indices below its counts; a target that reached no kill point
   gets none. *)
let test_plan_kill_horizon_sized () =
  let reach = [ ("fc.pass", 3); ("shard.ack", 0) ] in
  for seed = 1 to 40 do
    List.iter
      (fun (s : Faults.plan_step) ->
        if s.Faults.act = Faults.Kill then
          Alcotest.(check bool)
            (Printf.sprintf "kill at a reached hit (%s %d)" s.Faults.pt
               s.Faults.at)
            true
            (s.Faults.pt = "fc.pass" && s.Faults.at < 3))
      (Pl.generate ~kills:true ~reach ~seed ());
    Alcotest.(check bool) "no kill without reach" false
      (Pl.has_kills (Pl.generate ~kills:true ~reach:[] ~seed ()))
  done

(* The [slack] target hits [slack.force] once per noted thunk, whatever
   the schedule, so every kill step sized from its dry run fires. *)
let test_slack_kill_steps_land () =
  let t = E.find "slack" in
  let kills = ref 0 in
  for seed = 1 to 10 do
    let prog = P.generate t.E.kind ~seed in
    let plan =
      Pl.generate ~kills:true ~kill_points:(E.kill_points t)
        ~reach:(E.reach t prog) ~seed ()
    in
    let out = E.run t prog plan in
    let is_kill (s : Faults.plan_step) = s.Faults.act = Faults.Kill in
    kills := !kills + List.length (List.filter is_kill plan);
    Alcotest.(check int) "inert kill steps" 0
      (List.length (List.filter is_kill out.E.inert))
  done;
  Alcotest.(check bool) "kills do get generated" true (!kills > 0)

(* --------------------------- repro files ----------------------------- *)

let test_repro_roundtrip () =
  List.iter
    (fun kind ->
      List.iter
        (fun seed ->
          let r =
            {
              R.target = "roundtrip/" ^ P.kind_name kind;
              condition = Lin.Order.Medium;
              seed;
              program = P.generate kind ~seed;
              plan = Pl.generate ~intensity:20 ~seed ();
            }
          in
          let s = R.to_string r in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%d: of_string inverts to_string"
               (P.kind_name kind) seed)
            true
            (R.of_string s = r);
          Alcotest.(check string)
            (Printf.sprintf "%s/%d: canonical fixpoint" (P.kind_name kind)
               seed)
            s
            (R.to_string (R.of_string s)))
        [ 1; 2; 3 ])
    kinds

let test_repro_truncated () =
  let r =
    {
      R.target = "stack/weak";
      condition = Lin.Order.Weak;
      seed = 5;
      program = P.generate P.Stack ~seed:5;
      plan = Pl.generate ~seed:5 ();
    }
  in
  let s = R.to_string r in
  (* Drop the trailing "end" line: a truncated download must not load as
     a smaller-but-valid repro. *)
  let cut = String.length s - String.length "end\n" in
  let truncated = String.sub s 0 cut in
  match R.of_string truncated with
  | _ -> Alcotest.fail "truncated repro parsed"
  | exception Invalid_argument _ -> ()

(* --------------------- segmented exact checker ----------------------- *)

(* Random small queue histories with a mix of overlapping and quiescent
   intervals; the segmented search must agree with the plain exact one
   under every condition. *)
let random_history rng =
  let n = 2 + Workload.Rng.below rng 7 in
  let t = ref 0 in
  let fresh () =
    incr t;
    !t
  in
  let entries = ref [] in
  let pending = ref [] in
  for i = 0 to n - 1 do
    (* Occasionally let time pass with nothing open: a quiescent cut. *)
    if Workload.Rng.below rng 3 = 0 then t := !t + 5;
    let c_inv = fresh () in
    let c_res = fresh () in
    let e =
      if Workload.Rng.below rng 4 = 0 then None
      else begin
        let e_inv = fresh () in
        let e_res = fresh () in
        Some (e_inv, e_res)
      end
    in
    let op =
      if Workload.Rng.bool rng then QSpec.Enq i
      else if Workload.Rng.bool rng then QSpec.Deq None
      else QSpec.Deq (Some (Workload.Rng.below rng n))
    in
    pending := (Workload.Rng.below rng 3, op, c_inv, c_res, e) :: !pending;
    (* Close over the pending ops in random bursts so some intervals
       overlap. *)
    if Workload.Rng.below rng 2 = 0 then begin
      List.iter
        (fun (thread, op, c_inv, c_res, e) ->
          entries :=
            {
              H.thread;
              obj = 0;
              op;
              create_inv = c_inv;
              create_res = c_res;
              eval_inv = Option.map fst e;
              eval_res = Option.map snd e;
            }
            :: !entries)
        !pending;
      pending := []
    end
  done;
  List.iter
    (fun (thread, op, c_inv, c_res, e) ->
      entries :=
        {
          H.thread;
          obj = 0;
          op;
          create_inv = c_inv;
          create_res = c_res;
          eval_inv = Option.map fst e;
          eval_res = Option.map snd e;
        }
        :: !entries)
    !pending;
  Array.of_list (List.rev !entries)

let test_segmented_matches_check () =
  let rng = Workload.Rng.create ~seed:2014 ~stream:0 in
  let conditions =
    Lin.Order.[ Strong; Medium; Weak; Fsc ]
  in
  for trial = 1 to 150 do
    let h = random_history rng in
    List.iter
      (fun cond ->
        let plain = CQ.check cond h in
        let seg = CQ.check_segmented cond h in
        if plain <> seg then
          Alcotest.fail
            (Printf.sprintf
               "trial %d: check=%b but check_segmented=%b on %d ops" trial
               plain seg (Array.length h)))
      conditions
  done

let test_segmented_forces_cuts () =
  (* A long sequential history exceeds the per-segment cap only if the
     cuts are not taken; with max_segment:2 it must still be checked via
     its quiescent cuts. *)
  let t = ref 0 in
  let entry op =
    incr t;
    let c_inv = !t in
    incr t;
    let c_res = !t in
    {
      H.thread = 0;
      obj = 0;
      op;
      create_inv = c_inv;
      create_res = c_res;
      eval_inv = None;
      eval_res = None;
    }
  in
  let h =
    Array.init 30 (fun i ->
        if i mod 2 = 0 then entry (QSpec.Enq (i / 2))
        else entry (QSpec.Deq (Some (i / 2))))
  in
  Alcotest.(check bool)
    "sequential history accepted segment by segment" true
    (CQ.check_segmented ~max_segment:2 Lin.Order.Strong h);
  let bad =
    Array.map
      (fun (e : QSpec.op H.entry) ->
        match e.H.op with QSpec.Deq (Some v) -> { e with H.op = QSpec.Deq (Some (v + 100)) } | _ -> e)
      h
  in
  Alcotest.(check bool)
    "wrong values rejected segment by segment" false
    (CQ.check_segmented ~max_segment:2 Lin.Order.Strong bad)

let test_reachable_states_threading () =
  (* Splitting a history at a quiescent cut and threading the reachable
     state set through must agree with checking it whole. *)
  let mk ops ~base =
    let t = ref base in
    Array.of_list
      (List.map
         (fun op ->
           incr t;
           let c_inv = !t in
           incr t;
           {
             H.thread = 0;
             obj = 0;
             op;
             create_inv = c_inv;
             create_res = !t;
             eval_inv = None;
             eval_res = None;
           })
         ops)
  in
  let first = mk [ QSpec.Enq 1; QSpec.Enq 2 ] ~base:0 in
  let second = mk [ QSpec.Deq (Some 1); QSpec.Deq (Some 2) ] ~base:100 in
  let cond = Lin.Order.Strong in
  let after_first =
    CQ.reachable_states cond ~from:[ QSpec.initial ] first
  in
  Alcotest.(check bool) "first chunk legal" true (after_first <> []);
  let after_second = CQ.reachable_states cond ~from:after_first second in
  Alcotest.(check bool) "threaded chunks legal" true (after_second <> []);
  Alcotest.(check bool) "whole history agrees" true
    (CQ.check cond (Array.append first second));
  (* Empty history: the from set comes back deduplicated. *)
  let dedup =
    CQ.reachable_states cond
      ~from:[ QSpec.initial; QSpec.initial ]
      [||]
  in
  Alcotest.(check int) "empty history dedups from" 1 (List.length dedup)

(* ------------------------- execution -------------------------------- *)

let test_correct_targets_pass seed () =
  List.iter
    (fun name ->
      let t = E.find name in
      let prog = P.generate t.E.kind ~seed in
      let plan = Pl.generate ~seed () in
      let o = E.run t prog plan in
      match o.E.verdict with
      | E.Pass -> ()
      | E.Violation msg ->
          Alcotest.fail
            (Printf.sprintf "%s seed %d: unexpected violation: %s" name seed
               msg))
    [ "stack/strong"; "queue/medium"; "list/weak"; "map/weak"; "fig3"; "slack" ]

let test_run_rejects_kill_plan_on_checked () =
  let t = E.find "stack/weak" in
  let prog = P.generate t.E.kind ~seed:1 in
  let plan = [ { Faults.pt = "fc.pass"; at = 0; act = Faults.Kill } ] in
  match E.run t prog plan with
  | _ -> Alcotest.fail "kill plan accepted by a history-checked target"
  | exception Invalid_argument _ -> ()

let test_fclease_survives_kills seed () =
  let t = E.find "fclease" in
  Alcotest.(check bool) "fclease declares kill plans" true t.E.kill_plan;
  let prog = P.generate t.E.kind ~seed in
  let plan = Pl.generate ~kills:true ~seed () in
  let o = E.run t prog plan in
  match o.E.verdict with
  | E.Pass -> ()
  | E.Violation msg ->
      Alcotest.fail
        (Printf.sprintf "fclease seed %d: sum oracle violated: %s" seed msg)

(* A kill step at [slack.force] makes that one force thunk raise; the
   slack oracle still sees every thunk run exactly once and nothing left
   pending. The hits named are reachable: every program step but a
   [Force] notes one thunk. *)
let test_slack_raising_thunks () =
  let t = E.find "slack" in
  Alcotest.(check bool) "slack declares kill plans" true t.E.kill_plan;
  Alcotest.(check (list string)) "its kills mark force thunks"
    [ "slack.force" ] (E.kill_points t);
  let kill at = { Faults.pt = "slack.force"; at; act = Faults.Kill } in
  let prog = P.generate t.E.kind ~seed:1 in
  Alcotest.(check bool) "program notes enough thunks" true
    (P.recorded_ops prog > 8);
  match (E.run t prog [ kill 1; kill 4; kill 8 ]).E.verdict with
  | E.Pass -> ()
  | E.Violation msg -> Alcotest.fail ("slack oracle violated: " ^ msg)

(* The sharded store's oracle target: kill plans may murder workers at
   any transfer protocol step, and the oracle still demands liveness
   (every future settled within the bounded recovery drain) and
   refinement (no binding that was never proposed). *)
let test_shardmap_survives_kills seed () =
  let t = E.find "shardmap" in
  Alcotest.(check bool) "shardmap declares kill plans" true t.E.kill_plan;
  let prog = P.generate t.E.kind ~seed in
  let plan = Pl.generate ~kills:true ~seed () in
  let o = E.run t prog plan in
  match o.E.verdict with
  | E.Pass -> ()
  | E.Violation msg ->
      Alcotest.fail
        (Printf.sprintf "shardmap seed %d: oracle violated: %s" seed msg)

(* The admission-controlled session path: kill-free plans get the full
   FL-conformance check on the admitted subset; kill plans (workers and
   the controller itself murdered at the service.* and shard.* points)
   still demand liveness and shed exclusion. *)
let test_service_conformance seed () =
  let t = E.find "service" in
  let prog = P.generate t.E.kind ~seed in
  let plan = Pl.generate ~seed () in
  let o = E.run t prog plan in
  match o.E.verdict with
  | E.Pass -> ()
  | E.Violation msg ->
      Alcotest.fail
        (Printf.sprintf "service seed %d: admitted subset violated: %s" seed
           msg)

let test_service_survives_kills seed () =
  let t = E.find "service" in
  Alcotest.(check bool) "service declares kill plans" true t.E.kill_plan;
  let prog = P.generate t.E.kind ~seed in
  let plan = Pl.generate ~kills:true ~seed () in
  let o = E.run t prog plan in
  match o.E.verdict with
  | E.Pass -> ()
  | E.Violation msg ->
      Alcotest.fail
        (Printf.sprintf "service seed %d: oracle violated: %s" seed msg)

(* ------------------- the gauntlet, end to end ------------------------ *)

let test_buggy_target_shrinks_and_replays seed () =
  let out_dir = Filename.concat (Filename.get_temp_dir_name ()) "flds-fuzz" in
  let r =
    D.fuzz ~condition:Lin.Order.Medium ~iters:20 ~out_dir ~seed
      (E.find "stack/weak")
  in
  Alcotest.(check int) "violation found" 1 r.D.violations;
  (match r.D.shrunk_ops with
  | Some n -> Alcotest.(check bool) "shrunk to ≤ 8 ops" true (n <= 8)
  | None -> Alcotest.fail "no shrunk size reported");
  match r.D.repro_path with
  | None -> Alcotest.fail "no repro written"
  | Some path ->
      let repro, outcome = D.replay path in
      Alcotest.(check string) "repro names the target" "stack/weak"
        repro.R.target;
      (match outcome.E.verdict with
      | E.Violation _ -> ()
      | E.Pass -> Alcotest.fail "replay did not reproduce the violation");
      Sys.remove path

let test_campaign_deterministic seed () =
  let out_dir = Filename.concat (Filename.get_temp_dir_name ()) "flds-fuzz" in
  let run file =
    let r =
      D.fuzz ~condition:Lin.Order.Medium ~iters:20 ~out_dir ~file ~seed
        (E.find "stack/weak")
    in
    let path = Option.get r.D.repro_path in
    let contents = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    (r.D.iters, r.D.total_ops, contents)
  in
  let i1, o1, c1 = run "det-a.repro" in
  let i2, o2, c2 = run "det-b.repro" in
  Alcotest.(check int) "same iteration count" i1 i2;
  Alcotest.(check int) "same op count" o1 o2;
  Alcotest.(check string) "byte-identical repro" c1 c2

(* ------------------------------ mega -------------------------------- *)

module M = Fuzz.Mega

let test_mega_target_syntax () =
  let t = M.target_of_string "mega/queue/strong@0x2a" in
  Alcotest.(check string)
    "round-trips" "mega/queue/strong@0x2a" (M.target_to_string t);
  Alcotest.(check bool) "corrupt seed parsed" true (t.M.corrupt = Some 0x2a);
  let honest = M.target_of_string "mega/stack/weak-x" in
  Alcotest.(check bool) "no corruption" true (honest.M.corrupt = None);
  Alcotest.(check bool) "prefix predicate" true (M.is_mega_name "mega/x");
  Alcotest.(check bool) "prefix predicate" false (M.is_mega_name "stack/weak");
  List.iter
    (fun bad ->
      match M.target_of_string bad with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "parsed %S" bad)
    [ "mega/set/fine"; "mega/queue"; "queue/strong"; "mega/queue/strong@zz" ]

(* Honest mega run: a multi-thread history far beyond the exact
   checker's reach, certified by the streaming monitor. *)
let test_mega_certifies seed () =
  let t = M.target_of_string "mega/queue/strong" in
  let prog = P.generate_mega ~threads:3 P.Queue ~steps:2000 ~seed in
  let plan = Pl.generate ~kills:false ~intensity:4 ~seed () in
  let out = M.run t prog plan in
  Alcotest.(check bool) "well beyond 62 ops" true (out.M.ops > 4000);
  match out.M.verdict with
  | Lin.Stream.Accept -> ()
  | Lin.Stream.Reject { index; reason } ->
      Alcotest.failf "mega history rejected at %d: %s" index reason

(* S4: a corrupted mega campaign must fail, shrink through the twin
   program/plan shrinker, and leave a .repro that replays to the same
   violating index — single-threaded programs make the whole pipeline
   (recorded history, corruption, index) deterministic. *)
let test_mega_corruption_repro seed () =
  let out_dir = Filename.concat (Filename.get_temp_dir_name ()) "flds-fuzz" in
  let t = M.target_of_string "mega/queue/strong@0x2a" in
  let r =
    M.fuzz ~threads:1 ~steps:300 ~iters:3 ~out_dir
      ~file:(Printf.sprintf "mega-%d.repro" seed)
      ~seed t
  in
  (match r.M.first_failure with
  | Some _ -> ()
  | None -> Alcotest.fail "corrupted mega campaign found no violation");
  let index =
    match r.M.violating_index with
    | Some i -> i
    | None -> Alcotest.fail "no violating index reported"
  in
  (match r.M.shrunk_ops with
  | Some n ->
      Alcotest.(check bool)
        (Printf.sprintf "shrunk below the original 300 ops (got %d)" n)
        true (n < 300)
  | None -> Alcotest.fail "no shrunk size reported");
  match r.M.repro_path with
  | None -> Alcotest.fail "no repro written"
  | Some path ->
      let replay_index () =
        let repro, out = M.replay path in
        Alcotest.(check string)
          "repro round-trips the corruption seed" "mega/queue/strong@0x2a"
          repro.R.target;
        match out.M.verdict with
        | Lin.Stream.Reject { index; _ } -> index
        | Lin.Stream.Accept -> Alcotest.fail "replay did not reproduce"
      in
      let i1 = replay_index () in
      let i2 = replay_index () in
      Alcotest.(check int) "replay hits the campaign's violating index" index
        i1;
      Alcotest.(check int) "replay is deterministic" i1 i2;
      Sys.remove path

(* The seed lists below pick the campaigns each run exercises.
   FLDS_TEST_SEED=<n> replaces every list with just [n] so a failing
   campaign can be re-run in isolation; on failure each seeded case
   prints the rerun incantation for exactly that campaign. The same
   override drives test_faults' recorded schedules, so one variable
   reruns a whole failing seed across both suites. *)
let seeds_from_env default =
  match Sys.getenv_opt "FLDS_TEST_SEED" with
  | None -> default
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> [ n ]
      | None ->
          Printf.eprintf "FLDS_TEST_SEED=%S is not an integer; ignored\n%!" s;
          default)

let with_seed_reported seed f () =
  try f ()
  with e ->
    Printf.eprintf
      "seeded campaign failed — rerun just it with FLDS_TEST_SEED=%d\n%!" seed;
    raise e

let exec_seeds = seeds_from_env [ 1; 2 ]
let kill_seeds = seeds_from_env [ 1; 2; 3; 4 ]
let gauntlet_seeds = seeds_from_env [ 2014 ]
let determinism_seeds = seeds_from_env [ 99 ]
let mega_seeds = seeds_from_env [ 7 ]

let seeded name seeds test =
  List.map
    (fun seed ->
      Alcotest.test_case
        (Printf.sprintf "%s, seed %d" name seed)
        `Slow
        (with_seed_reported seed (test seed)))
    seeds

let () =
  Alcotest.run "fuzz"
    [
      ( "generate",
        [
          Alcotest.test_case "programs deterministic" `Quick
            test_program_deterministic;
          Alcotest.test_case "size cap" `Quick test_program_cap;
          Alcotest.test_case "plans deterministic" `Quick
            test_plan_deterministic;
          Alcotest.test_case "kills confined to lease points" `Quick
            test_plan_kills_confined;
          Alcotest.test_case "kill horizon sized by reach" `Quick
            test_plan_kill_horizon_sized;
          Alcotest.test_case "sized slack kills land" `Quick
            test_slack_kill_steps_land;
        ] );
      ( "repro",
        [
          Alcotest.test_case "round-trip" `Quick test_repro_roundtrip;
          Alcotest.test_case "truncated file rejected" `Quick
            test_repro_truncated;
        ] );
      ( "segmented",
        [
          Alcotest.test_case "agrees with exact check" `Quick
            test_segmented_matches_check;
          Alcotest.test_case "long history via cuts" `Quick
            test_segmented_forces_cuts;
          Alcotest.test_case "reachable-state threading" `Quick
            test_reachable_states_threading;
        ] );
      ( "exec",
        seeded "correct targets pass" exec_seeds test_correct_targets_pass
        @ [
            Alcotest.test_case "kill plan rejected when checked" `Quick
              test_run_rejects_kill_plan_on_checked;
          ]
        @ seeded "fclease sum oracle under kills" kill_seeds
            test_fclease_survives_kills
        @ seeded "shardmap oracle under kills" kill_seeds
            test_shardmap_survives_kills
        @ seeded "service admitted-subset conformance" kill_seeds
            test_service_conformance
        @ seeded "service oracle under kills" kill_seeds
            test_service_survives_kills
        @ [
            Alcotest.test_case "slack oracle with raising thunks" `Quick
              test_slack_raising_thunks;
          ] );
      ( "gauntlet",
        seeded "buggy check shrinks and replays" gauntlet_seeds
          test_buggy_target_shrinks_and_replays
        @ seeded "campaign deterministic" determinism_seeds
            test_campaign_deterministic );
      ( "mega",
        [ Alcotest.test_case "target syntax" `Quick test_mega_target_syntax ]
        @ seeded "honest mega history certifies" mega_seeds
            test_mega_certifies
        @ seeded "corruption shrinks and replays to the same index"
            mega_seeds test_mega_corruption_repro );
    ]
