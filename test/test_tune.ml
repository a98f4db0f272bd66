(* Self-tuning runtime tests: the pure policy (per-kind lean rules, the
   hysteresis vote machine, clamping and the floor-at-one on halving) on
   synthetic observations, and the controller (telemetry-driven steps
   over real Obs metrics, kill tolerance at the "tune.epoch" fault
   point, idempotent stop). *)

module T = Fl.Tunable
module P = Tune.Policy
module C = Tune.Controller
module E = Obs.Event

let cfg = P.default (* min_ops = 64, hysteresis = 2 *)

let dir =
  Alcotest.testable
    (fun fmt d ->
      Format.pp_print_string fmt
        (match d with P.Up -> "Up" | P.Down -> "Down" | P.Hold -> "Hold"))
    ( = )

(* A synthetic observation: busy by default (past the idle gate),
   neutral on every signal unless overridden. *)
let obs ?(ops = 1_000) ?(slack_batch = 0.0) ?(force_p99_ns = 0)
    ?(pending_p50_ns = 0) ?(fc_batch = 0.0) ?(fc_passes = 0) () =
  { P.ops; slack_batch; force_p99_ns; pending_p50_ns; fc_batch; fc_passes }

(* A dial over a plain ref cell, so tests watch exactly what the vote
   machine sets. *)
let cell_dial ?(kind = T.Slack_window) ?(lo = 1) ?(hi = 4096) init =
  let v = ref init in
  ( v,
    {
      T.kind;
      name = "test";
      lo;
      hi;
      get = (fun () -> !v);
      set = (fun n -> v := n);
    } )

(* ------------------------------ lean rules --------------------------- *)

let test_lean_slack () =
  let lean o = P.lean cfg T.Slack_window ~cur:8 ~hi:4096 o in
  Alcotest.check dir "idle epochs hold" P.Hold (lean (obs ~ops:10 ()));
  Alcotest.check dir "force latency over budget backs off" P.Down
    (lean (obs ~force_p99_ns:2_000_000 ~slack_batch:7.0 ()));
  Alcotest.check dir "pendingness over budget backs off full windows" P.Down
    (lean (obs ~pending_p50_ns:2_000_000 ~slack_batch:7.0 ()));
  Alcotest.check dir "windows draining full widen" P.Up
    (lean (obs ~slack_batch:7.0 ()));
  Alcotest.check dir "windows draining empty shrink" P.Down
    (lean (obs ~slack_batch:1.0 ()));
  Alcotest.check dir "mid fill holds" P.Hold (lean (obs ~slack_batch:4.0 ()))

let test_lean_fc () =
  let lean_budget o = P.lean cfg T.Fc_pass_budget ~cur:4 ~hi:64 o in
  Alcotest.check dir "no passes hold" P.Hold
    (lean_budget (obs ~fc_batch:9.0 ()));
  Alcotest.check dir "fat passes raise the budget" P.Up
    (lean_budget (obs ~fc_passes:10 ~fc_batch:3.0 ()));
  Alcotest.check dir "thin passes lower it" P.Down
    (lean_budget (obs ~fc_passes:10 ~fc_batch:1.0 ()));
  let lean_scan ~cur o = P.lean cfg T.Fc_scan_limit ~cur ~hi:1024 o in
  Alcotest.check dir "unlimited scan shrinks toward the batch" P.Down
    (lean_scan ~cur:0 (obs ~fc_passes:10 ~fc_batch:4.0 ()));
  Alcotest.check dir "scan limit under the batch grows" P.Up
    (lean_scan ~cur:8 (obs ~fc_passes:10 ~fc_batch:8.0 ()));
  Alcotest.check dir "scan limit near target holds" P.Hold
    (lean_scan ~cur:16 (obs ~fc_passes:10 ~fc_batch:4.0 ()));
  Alcotest.check dir "light combining climbs back toward unbounded" P.Up
    (lean_scan ~cur:16 (obs ~fc_passes:10 ~fc_batch:1.0 ()))

(* --------------------------- vote machine ---------------------------- *)

let up_obs = obs ~slack_batch:100.0 ()
let down_obs = obs ~slack_batch:0.5 ()
let hold_obs = obs ~slack_batch:4.0 ()

let test_decide_step_up () =
  let v, dial = cell_dial 8 in
  let votes = P.new_votes () in
  Alcotest.(check (option int))
    "first leaning epoch only votes" None
    (P.decide cfg dial votes up_obs);
  Alcotest.(check (option int))
    "second consecutive epoch doubles" (Some 16)
    (P.decide cfg dial votes up_obs);
  v := 16;
  Alcotest.(check (option int))
    "streak restarts after a move" None
    (P.decide cfg dial votes up_obs)

let test_decide_step_down () =
  let v, dial = cell_dial 8 in
  let votes = P.new_votes () in
  Alcotest.(check (option int)) "vote" None (P.decide cfg dial votes down_obs);
  Alcotest.(check (option int))
    "second epoch halves" (Some 4)
    (P.decide cfg dial votes down_obs);
  ignore !v

let test_decide_no_flap () =
  let _, dial = cell_dial 8 in
  let votes = P.new_votes () in
  (* Alternating lean and neutral epochs: the streak keeps resetting, so
     the dial never moves. *)
  for _ = 1 to 4 do
    Alcotest.(check (option int))
      "leaning epoch alone never fires" None
      (P.decide cfg dial votes up_obs);
    Alcotest.(check (option int))
      "neutral epoch resets the streak" None
      (P.decide cfg dial votes hold_obs)
  done;
  (* An opposing epoch resets too: Up, Down, Down fires Down — the Up
     vote died the moment the evidence flipped. *)
  Alcotest.(check (option int)) "up vote" None (P.decide cfg dial votes up_obs);
  Alcotest.(check (option int))
    "opposing vote resets" None
    (P.decide cfg dial votes down_obs);
  Alcotest.(check (option int))
    "second down fires" (Some 4)
    (P.decide cfg dial votes down_obs)

let test_decide_clamps () =
  (* At the ceiling, a sustained Up streak is a no-op, not an overflow. *)
  let _, dial = cell_dial ~hi:8 8 in
  let votes = P.new_votes () in
  Alcotest.(check (option int)) "vote" None (P.decide cfg dial votes up_obs);
  Alcotest.(check (option int))
    "clamped at hi" None
    (P.decide cfg dial votes up_obs);
  (* Halving floors at 1 even when the dial's range includes 0: for the
     scan limit 0 means unlimited, a maximal setting. *)
  let _, dial = cell_dial ~kind:T.Fc_pass_budget ~lo:0 1 in
  let votes = P.new_votes () in
  let thin = obs ~fc_passes:10 ~fc_batch:1.0 () in
  Alcotest.(check (option int)) "vote" None (P.decide cfg dial votes thin);
  Alcotest.(check (option int))
    "halving never falls to 0" None
    (P.decide cfg dial votes thin)

(* ----------------------------- controller ---------------------------- *)

(* Leave the global recorder as found: same discipline as test_obs. *)
let fresh f () =
  let stride = Obs.sample_every () in
  let was = Obs.enabled () in
  Obs.set_sample_every 1;
  Obs.set_enabled true;
  Obs.Metrics.reset ();
  Fun.protect f ~finally:(fun () ->
      Obs.set_enabled was;
      Obs.set_sample_every stride;
      Obs.Metrics.reset ())

(* Manual stepping: synthesize combining telemetry between epochs and
   watch the controller double the pass budget off the live diff. *)
let test_controller_steps () =
  let ctl = C.create () in
  let v, dial = cell_dial ~kind:T.Fc_pass_budget ~lo:1 ~hi:64 1 in
  C.add_dial ctl dial;
  Alcotest.(check int) "dial registered" 1 (C.dial_count ctl);
  let emit () =
    for _ = 1 to 10 do
      Obs.splice ~kind:E.k_fc_pass ~n:8
    done
  in
  emit ();
  C.step ctl;
  Alcotest.(check int) "one leaning epoch: no move yet" 1 !v;
  emit ();
  C.step ctl;
  Alcotest.(check int) "second epoch: budget doubled" 2 !v;
  C.step ctl;
  Alcotest.(check int) "idle epoch: untouched" 2 !v;
  Alcotest.(check int) "epochs counted" 3 (C.epochs ctl);
  Alcotest.(check int) "decisions counted" 1 (C.decisions ctl);
  Alcotest.(check int) "no errors" 0 (C.errors ctl)

(* A dial whose setter raises must cost one error, not the epoch loop:
   the healthy dial beside it still moves. *)
let test_controller_bad_dial () =
  let ctl = C.create () in
  let v, good = cell_dial ~kind:T.Fc_pass_budget ~lo:1 ~hi:64 1 in
  let bad =
    {
      T.kind = T.Fc_pass_budget;
      name = "bad";
      lo = 1;
      hi = 64;
      get = (fun () -> failwith "torn down");
      set = (fun _ -> ());
    }
  in
  C.add_dials ctl [ bad; good ];
  let emit () =
    for _ = 1 to 10 do
      Obs.splice ~kind:E.k_fc_pass ~n:8
    done
  in
  emit ();
  C.step ctl;
  emit ();
  C.step ctl;
  Alcotest.(check int) "healthy dial still moved" 2 !v;
  Alcotest.(check int) "raises counted as errors" 2 (C.errors ctl)

(* Kill tolerance: an injected Faults.Killed at "tune.epoch" murders the
   controller domain; the dial keeps its last-good value, [stop] joins
   the corpse without raising, and stop is idempotent. *)
let test_controller_kill () =
  Faults.on "tune.epoch" (fun _ -> Faults.Kill);
  let v, dial = cell_dial ~kind:T.Fc_pass_budget ~lo:1 ~hi:64 3 in
  let ctl = C.create ~epoch:0.001 () in
  C.add_dial ctl dial;
  C.start ctl;
  let deadline = Sync.Mono.now () +. 5.0 in
  while C.errors ctl = 0 && Sync.Mono.now () < deadline do
    Unix.sleepf 0.001
  done;
  Faults.clear "tune.epoch";
  Alcotest.(check bool) "controller died" true (C.errors ctl > 0);
  Alcotest.(check int) "no epoch ran" 0 (C.epochs ctl);
  Alcotest.(check int) "last-good config intact" 3 !v;
  C.stop ctl;
  Alcotest.(check bool) "stopped" false (C.running ctl);
  C.stop ctl;
  (* A fresh start after the corpse was reaped works. *)
  C.start ctl;
  Alcotest.(check bool) "restarted" true (C.running ctl);
  C.stop ctl

(* Warm start: once the controller has moved a dial, a freshly-registered
   dial with the same (kind, name) identity inherits the learned value
   immediately — a dial with a new identity does not. *)
let test_controller_warm_start () =
  let ctl = C.create () in
  let v, dial = cell_dial ~kind:T.Fc_pass_budget ~lo:1 ~hi:64 1 in
  C.add_dial ctl dial;
  let emit () =
    for _ = 1 to 10 do
      Obs.splice ~kind:E.k_fc_pass ~n:8
    done
  in
  emit ();
  C.step ctl;
  emit ();
  C.step ctl;
  Alcotest.(check int) "first dial moved" 2 !v;
  let v2, late = cell_dial ~kind:T.Fc_pass_budget ~lo:1 ~hi:64 1 in
  C.add_dial ctl late;
  Alcotest.(check int) "same identity warm-starts to learned value" 2 !v2;
  ignore v;
  let v3, other = cell_dial ~kind:T.Slack_window ~lo:1 ~hi:4096 8 in
  C.add_dial ctl other;
  Alcotest.(check int) "unknown identity keeps its start" 8 !v3

let test_controller_start_stop () =
  let ctl = C.create ~epoch:0.001 () in
  C.start ctl;
  Alcotest.check_raises "double start rejected"
    (Invalid_argument "Controller.start: already running") (fun () ->
      C.start ctl);
  let deadline = Sync.Mono.now () +. 5.0 in
  while C.epochs ctl < 3 && Sync.Mono.now () < deadline do
    Unix.sleepf 0.001
  done;
  C.stop ctl;
  Alcotest.(check bool) "epochs advanced" true (C.epochs ctl >= 3);
  Alcotest.check_raises "bad epoch rejected"
    (Invalid_argument "Controller.create: epoch must be > 0") (fun () ->
      ignore (C.create ~epoch:0.0 ()))

let () =
  Alcotest.run "tune"
    [
      ( "policy",
        [
          Alcotest.test_case "slack lean" `Quick test_lean_slack;
          Alcotest.test_case "combining lean" `Quick test_lean_fc;
          Alcotest.test_case "step up" `Quick test_decide_step_up;
          Alcotest.test_case "step down" `Quick test_decide_step_down;
          Alcotest.test_case "hysteresis no-flap" `Quick test_decide_no_flap;
          Alcotest.test_case "clamping" `Quick test_decide_clamps;
        ] );
      ( "controller",
        [
          Alcotest.test_case "telemetry-driven steps" `Quick
            (fresh test_controller_steps);
          Alcotest.test_case "bad dial isolated" `Quick
            (fresh test_controller_bad_dial);
          Alcotest.test_case "kill leaves last-good config" `Quick
            (fresh test_controller_kill);
          Alcotest.test_case "warm start" `Quick
            (fresh test_controller_warm_start);
          Alcotest.test_case "start/stop" `Quick
            (fresh test_controller_start_stop);
        ] );
    ]
