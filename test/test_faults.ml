(* Fault-injection tests: the Faults subsystem itself, the combiner-lease
   takeover protocol under recorded stall schedules, bounded waits
   (Future timeouts, Spinlock deadlines) under stalled producers, and
   runner chaos mode (killed/stalled workers) against the strong, medium
   and weak queues and stacks — with conformance re-checks after every
   provoked failure. *)

module Future = Futures.Future
module FC = Combining.Flat_combining
module R = Fl.Registry

(* Every test leaves the global injection state clean, even on failure. *)
let with_clean_faults f () =
  Fun.protect ~finally:Faults.clear_all (fun () ->
      Faults.clear_all ();
      f ())

(* ----------------------------- faults ------------------------------- *)

let test_point_disabled_noop () =
  Faults.clear_all ();
  (* Must not raise, delay, or count. *)
  Faults.point "nosuch";
  Alcotest.(check int) "no hits counted when disabled" 0 (Faults.hits "nosuch")

let test_scripted_actions () =
  let log = ref [] in
  Faults.on "t.p" (fun k ->
      log := k :: !log;
      if k = 2 then Faults.Kill else Faults.Nothing);
  Faults.point "t.p";
  Faults.point "t.p";
  Alcotest.check_raises "third hit killed" (Faults.Killed "t.p") (fun () ->
      Faults.point "t.p");
  Alcotest.(check (list int)) "hit indices in order" [ 0; 1; 2 ]
    (List.rev !log);
  Alcotest.(check int) "hits counted" 3 (Faults.hits "t.p");
  Faults.clear "t.p";
  Faults.point "t.p";
  Alcotest.(check int) "cleared script no longer counts" 3 (Faults.hits "t.p")

let test_scripted_delay_and_sleep () =
  (* Delay and Sleep must perturb, not fail. *)
  Faults.on "t.d" (fun _ -> Faults.Delay 100);
  Faults.on "t.s" (fun _ -> Faults.Sleep 1e-4);
  Faults.point "t.d";
  let dt = Workload.Runner.time (fun () -> Faults.point "t.s") in
  Alcotest.(check bool) "sleep actually slept" true (dt >= 5e-5)

let test_seeded_mode_deterministic () =
  Faults.enable ~prob:0.5 ~seed:7 ();
  Alcotest.(check bool) "enabled" true (Faults.enabled ());
  (* Same seed, same domain, same hit sequence => same perturbations: we
     can only observe the absence of kills (kill is off) and that
     counters advance. *)
  for _ = 1 to 50 do
    Faults.point "t.seeded"
  done;
  Alcotest.(check int) "all hits counted" 50 (Faults.hits "t.seeded");
  Faults.disable ();
  Alcotest.(check bool) "disabled" false (Faults.enabled ());
  Faults.point "t.seeded";
  Alcotest.(check int) "fast path stops counting" 50 (Faults.hits "t.seeded")

let test_reset_counters () =
  Faults.on "t.r" (fun _ -> Faults.Nothing);
  Faults.point "t.r";
  Faults.point "t.r";
  Faults.reset_counters ();
  Alcotest.(check int) "zeroed" 0 (Faults.hits "t.r")

(* ------------------------ combiner takeover -------------------------- *)

(* One recorded schedule per seed: the seed fixes how many fault-free
   warm-up passes precede the stall, and how long the stalled combiner
   sleeps. Two domains then contend; whichever one holds the combiner
   term when the scripted pass fires goes to sleep mid-pass, and the
   other must usurp the lease within its takeover budget instead of
   spinning for the whole stall. *)
let takeover_schedule seed =
  let rng = Workload.Rng.create ~seed ~stream:0 in
  let warmup = Workload.Rng.below rng 3 in
  let stall = 0.01 +. (0.02 *. Workload.Rng.float rng) in
  (warmup, stall)

let test_takeover seed () =
  let warmup, stall = takeover_schedule seed in
  let sum = ref 0 in
  let t =
    FC.create ~takeover_budget:8
      ~apply:(fun op ->
        sum := !sum + op;
        !sum)
      ()
  in
  Faults.on "fc.pass" (fun k ->
      if k = warmup then Faults.Sleep stall else Faults.Nothing);
  let gate = Atomic.make false in
  let d1 =
    Domain.spawn (fun () ->
        let h = FC.handle t in
        for i = 1 to warmup do
          ignore (FC.apply h i)
        done;
        Atomic.set gate true;
        ignore (FC.apply h 1000))
  in
  let d2 =
    Domain.spawn (fun () ->
        let h = FC.handle t in
        while not (Atomic.get gate) do
          Domain.cpu_relax ()
        done;
        ignore (FC.apply h 2000))
  in
  let elapsed =
    Workload.Runner.time (fun () ->
        Domain.join d1;
        Domain.join d2)
  in
  ignore elapsed;
  Alcotest.(check int) "every op applied exactly once"
    ((warmup * (warmup + 1) / 2) + 3000)
    !sum;
  Alcotest.(check bool) "a waiter usurped the stalled combiner" true
    (FC.combiner_takeovers t >= 1);
  (* The same recorded schedule must also leave bounded waits bounded:
     forcing a future nobody will fulfil times out rather than spinning. *)
  let fut : int Future.t = Future.create () in
  Alcotest.check_raises "force_until times out" Future.Timeout (fun () ->
      ignore (Future.force_until fut ~deadline:(Sync.Mono.now () +. 0.003)));
  (* Structure-level invariants after the provoked stall: the
     flat-combining implementations still pass their conformance
     condition. *)
  let outcome = Conformance.check_stack ~rounds:2 (R.find_stack "flatcomb") in
  Alcotest.(check int) "flatcomb stack conformance clean" 0
    outcome.Conformance.violations;
  let outcome = Conformance.check_queue ~rounds:2 (R.find_queue "flatcomb") in
  Alcotest.(check int) "flatcomb queue conformance clean" 0
    outcome.Conformance.violations

(* A combiner killed mid-pass leaves the lease held forever (a dead
   thread releases nothing); the next applier must usurp it. *)
let test_takeover_after_death () =
  let sum = ref 0 in
  let t =
    FC.create ~takeover_budget:8
      ~apply:(fun op ->
        sum := !sum + op;
        !sum)
      ()
  in
  Faults.on "fc.pass" (fun k -> if k = 0 then Faults.Kill else Faults.Nothing);
  let victim =
    Domain.spawn (fun () ->
        let h = FC.handle t in
        match FC.apply h 7 with
        | _ -> Alcotest.fail "victim survived its kill"
        | exception Faults.Killed _ -> ())
  in
  Domain.join victim;
  (* The victim died as combiner before applying anything; its own
     published request was retired on the way out of [apply], so no
     later combiner applies the dead owner's op with nobody to consume
     the response. A later thread usurps the orphaned lease and is
     answered normally. *)
  let h = FC.handle t in
  Alcotest.(check int) "applied past the dead combiner" 5 (FC.apply h 5);
  Alcotest.(check int) "dead owner's op withdrawn, not applied" 5 !sum;
  Alcotest.(check bool) "lease was usurped" true
    (FC.combiner_takeovers t >= 1);
  Alcotest.(check bool) "request retired" true (FC.retired_records t >= 1)

(* Exceptions raised by the wrapped operation must answer every record:
   the raiser gets the exception re-raised, everyone else their result. *)
let test_apply_op_exception_answers_all () =
  let t =
    FC.create
      ~apply:(fun op -> if op < 0 then failwith "bad op" else op * 10)
      ()
  in
  let n = 4 and per = 500 in
  let errors = Array.make n 0 in
  let oks = Array.make n 0 in
  let ds =
    List.init n (fun i ->
        Domain.spawn (fun () ->
            let h = FC.handle t in
            for j = 1 to per do
              (* Thread 0 keeps throwing bad ops into the mix. *)
              if i = 0 && j mod 3 = 0 then
                match FC.apply h (-j) with
                | _ -> Alcotest.fail "negative op must raise"
                | exception Failure _ -> errors.(i) <- errors.(i) + 1
              else
                let v = FC.apply h j in
                if v = j * 10 then oks.(i) <- oks.(i) + 1
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "raiser saw every exception" (per / 3) errors.(0);
  List.iteri
    (fun i expected ->
      Alcotest.(check int)
        (Printf.sprintf "thread %d answered" i)
        expected oks.(i))
    (per - (per / 3) :: List.init (n - 1) (fun _ -> per))

(* ------------------------- bounded waits ----------------------------- *)

let test_await_for_timeout_and_recovery seed () =
  (* Recorded schedule: the producer stalls (via the future.fulfil
     injection point) longer than the consumer's patience; the consumer
     times out, then recovers the value with an unbounded await. *)
  let rng = Workload.Rng.create ~seed ~stream:1 in
  let stall = 0.01 +. (0.01 *. Workload.Rng.float rng) in
  Faults.on "future.fulfil" (fun _ -> Faults.Sleep stall);
  let fut = Future.create () in
  let producer = Domain.spawn (fun () -> Future.fulfil fut 42) in
  Alcotest.check_raises "await_for gives up first" Future.Timeout (fun () ->
      ignore (Future.await_for fut ~seconds:(stall /. 8.)));
  Alcotest.(check int) "value still arrives" 42 (Future.await fut);
  Domain.join producer

let test_force_until_ready_and_evaluator () =
  let f = Future.of_value 3 in
  Alcotest.(check int) "ready future ignores deadline" 3
    (Future.force_until f ~deadline:0.0);
  let g = Future.create_with ~evaluator:(fun g -> Future.fulfil g 9) in
  Alcotest.(check int) "evaluator runs regardless of deadline" 9
    (Future.force_until g ~deadline:0.0)

let test_spinlock_try_acquire_for () =
  let l = Sync.Spinlock.create () in
  Alcotest.(check bool) "free lock acquired" true
    (Sync.Spinlock.try_acquire_for l ~seconds:0.01);
  (* Held elsewhere: a short deadline must expire, a longer one must win
     once the holder releases. *)
  let release = Atomic.make false in
  let holder =
    Domain.spawn (fun () ->
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done;
        Sync.Spinlock.release l)
  in
  Alcotest.(check bool) "deadline expires while held" false
    (Sync.Spinlock.try_acquire_for l ~seconds:0.005);
  Atomic.set release true;
  Alcotest.(check bool) "acquired after release" true
    (Sync.Spinlock.try_acquire_for l ~seconds:1.0);
  Sync.Spinlock.release l;
  Domain.join holder

(* --------------------------- runner chaos ---------------------------- *)

(* Chaos workloads: tagged, globally unique values so that whatever
   subset of operations survives a worker's death, the drained structure
   must contain no duplicates and nothing it was never given. A scripted
   kill at the per-op injection point additionally murders one worker
   mid-loop — futures pending, handle never flushed. *)

let tag thread uid = (thread * 1_000_000) + uid

let check_contents ~threads ~label contents =
  let sorted = List.sort_uniq compare contents in
  Alcotest.(check int)
    (label ^ ": no element duplicated by recovery")
    (List.length contents) (List.length sorted);
  List.iter
    (fun v ->
      if v < 0 || v / 1_000_000 >= threads then
        Alcotest.fail (label ^ ": fabricated element"))
    contents

(* Survivor order per producer (valid for strong and medium, whose
   program-order guarantees survive partial application; weak makes no
   such promise). *)
let check_queue_order ~label contents =
  let last = Hashtbl.create 4 in
  List.iter
    (fun v ->
      let p = v / 1_000_000 and n = v mod 1_000_000 in
      (match Hashtbl.find_opt last p with
      | Some m when m >= n ->
          Alcotest.fail (label ^ ": per-producer order broken")
      | _ -> ());
      Hashtbl.replace last p n)
    contents

let threads = 3
let ops = 200

let chaos_schedule seed =
  let rng = Workload.Rng.create ~seed ~stream:9 in
  (* Where in the run the scripted mid-loop kill lands. *)
  100 + Workload.Rng.below rng 300

let run_stack_chaos name seed =
  let impl = R.find_stack name in
  let kill_at = chaos_schedule seed in
  Faults.on "chaos.op" (fun k ->
      if k = kill_at then Faults.Kill else Faults.Nothing);
  let uid = Atomic.make 0 in
  let worker inst ~thread ~ops =
    let o = inst.R.s_handle () in
    let rng = Workload.Rng.create ~seed ~stream:thread in
    let sl = Fl.Slack.create 5 in
    for _ = 1 to ops do
      Faults.point "chaos.op";
      if Workload.Rng.bool rng then begin
        let f = o.R.s_push (tag thread (Atomic.fetch_and_add uid 1)) in
        Fl.Slack.note sl (fun () -> Future.force f)
      end
      else
        let f = o.R.s_pop () in
        Fl.Slack.note sl (fun () -> ignore (Future.force f))
    done;
    Fl.Slack.drain sl;
    o.R.s_flush ()
  in
  Workload.Runner.run ~threads ~repeats:2 ~ops_per_thread:ops
    ~setup:impl.R.s_make ~worker
    ~teardown:(fun inst ->
      inst.R.s_drain ();
      check_contents ~threads ~label:(name ^ " stack") (inst.R.s_contents ()))
    ~chaos:(Workload.Runner.chaos ~seed ())
    ()

let run_queue_chaos name seed =
  let impl = R.find_queue name in
  let kill_at = chaos_schedule (seed + 1) in
  Faults.on "chaos.op" (fun k ->
      if k = kill_at then Faults.Kill else Faults.Nothing);
  let uid = Atomic.make 0 in
  let worker inst ~thread ~ops =
    let o = inst.R.q_handle () in
    let rng = Workload.Rng.create ~seed ~stream:thread in
    let sl = Fl.Slack.create 5 in
    for _ = 1 to ops do
      Faults.point "chaos.op";
      if Workload.Rng.bool rng then begin
        let f = o.R.q_enq (tag thread (Atomic.fetch_and_add uid 1)) in
        Fl.Slack.note sl (fun () -> Future.force f)
      end
      else
        let f = o.R.q_deq () in
        Fl.Slack.note sl (fun () -> ignore (Future.force f))
    done;
    Fl.Slack.drain sl;
    o.R.q_flush ()
  in
  Workload.Runner.run ~threads ~repeats:2 ~ops_per_thread:ops
    ~setup:impl.R.q_make ~worker
    ~teardown:(fun inst ->
      inst.R.q_drain ();
      let contents = inst.R.q_contents () in
      check_contents ~threads ~label:(name ^ " queue") contents;
      if name <> "weak" then
        check_queue_order ~label:(name ^ " queue") contents)
    ~chaos:(Workload.Runner.chaos ~seed ())
    ()

let test_stack_chaos name seed () =
  let m = run_stack_chaos name seed in
  (* The scripted mid-loop kill always lands: kill_at < the minimum
     number of per-repeat op hits, so at least one worker dies with
     futures pending and its handle unflushed. *)
  Alcotest.(check bool) "at least one worker was killed" true
    (m.Workload.Runner.killed >= 1);
  Alcotest.(check int) "no unexplained failures" 0
    m.Workload.Runner.suppressed_failures;
  (* The implementation class still satisfies its claimed condition. *)
  let outcome = Conformance.check_stack ~rounds:2 (R.find_stack name) in
  Alcotest.(check int) "conformance clean after chaos" 0
    outcome.Conformance.violations

let test_queue_chaos name seed () =
  let m = run_queue_chaos name seed in
  Alcotest.(check bool) "at least one worker was killed" true
    (m.Workload.Runner.killed >= 1);
  Alcotest.(check int) "no unexplained failures" 0
    m.Workload.Runner.suppressed_failures;
  let outcome = Conformance.check_queue ~rounds:2 (R.find_queue name) in
  Alcotest.(check int) "conformance clean after chaos" 0
    outcome.Conformance.violations

(* -------------------------- orphan recovery -------------------------- *)

(* Recovery bugs present as hangs (a waiter spinning on a future nobody
   will ever fulfil), so every kill schedule runs under a hard deadline
   enforced from a monitor domain: a hang fails the test instead of
   wedging the suite. *)
let with_timeout ?(seconds = 60.0) label f =
  let result = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        let r = match f () with v -> Ok v | exception e -> Error e in
        Atomic.set result (Some r))
  in
  let deadline = Sync.Mono.now () +. seconds in
  let rec poll () =
    match Atomic.get result with
    | Some r -> (
        Domain.join d;
        match r with Ok v -> v | Error e -> raise e)
    | None ->
        if Sync.Mono.now () > deadline then
          Alcotest.failf "%s: no recovery within %.0fs (orphan hang)" label
            seconds
        else begin
          Unix.sleepf 0.002;
          poll ()
        end
  in
  poll ()

let orphan_ops = 5

(* The flagship schedule: thread 0 publishes [orphan_ops] operations
   into its window, exposes their futures, registers its handle's
   [abandon] as recovery hook, and is killed before flushing. The
   watchdog (or the post-join sweep) must poison exactly those futures,
   the window must be discarded un-spliced, and the structure must come
   out clean. *)
let run_orphan ~label ~handle_ops ~contents ~drain seed =
  let victim_futs = Array.make orphan_ops None in
  Faults.on "lifecycle.victim" (fun _ -> Faults.Kill);
  let worker () ~thread ~ops =
    let issue, force_tail, abandon = handle_ops () in
    Workload.Runner.set_abandon_hook abandon;
    if thread = 0 then begin
      for j = 0 to orphan_ops - 1 do
        victim_futs.(j) <- Some (issue (tag 0 j))
      done;
      Faults.point "lifecycle.victim";
      Alcotest.fail "victim survived its kill"
    end
    else begin
      let rng = Workload.Rng.create ~seed ~stream:thread in
      let uid = ref 0 in
      for _ = 1 to ops do
        Workload.Runner.heartbeat ();
        incr uid;
        ignore (Workload.Rng.bool rng);
        ignore (issue (tag thread !uid) : unit Future.t)
      done;
      force_tail ()
    end
  in
  let m =
    with_timeout label (fun () ->
        Workload.Runner.run ~threads:3 ~repeats:1 ~ops_per_thread:50
          ~setup:(fun () -> ())
          ~worker
          ~teardown:(fun () -> drain ())
          ~watchdog:0.002 ())
  in
  Alcotest.(check int) (label ^ ": victim killed") 1 m.Workload.Runner.killed;
  Alcotest.(check int)
    (label ^ ": no unexplained failures")
    0 m.Workload.Runner.suppressed_failures;
  Alcotest.(check bool) (label ^ ": runner recovered the dead worker") true
    (m.Workload.Runner.recovered >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "%s: all %d orphans poisoned (got %d)" label orphan_ops
       m.Workload.Runner.poisoned)
    true
    (m.Workload.Runner.poisoned >= orphan_ops);
  (* Every future the victim left behind raises [Broken Orphaned] —
     immediately, not after a timeout. *)
  Array.iteri
    (fun j f ->
      match f with
      | None -> Alcotest.failf "%s: victim future %d never published" label j
      | Some f ->
          (* Force first: a derived future (the set wrapper maps over
             the handle's future) only learns its parent's terminal
             state when forced. *)
          Alcotest.check_raises
            (Printf.sprintf "%s: orphan %d raises" label j)
            (Future.Broken Future.Orphaned)
            (fun () -> ignore (Future.force f : unit));
          Alcotest.(check bool)
            (Printf.sprintf "%s: orphan %d poisoned" label j)
            true (Future.is_poisoned f))
    victim_futs;
  (* The victim died before flushing: its window was tombstoned and
     discarded, so none of its values may have reached the structure. *)
  let cs = contents () in
  check_contents ~threads:3 ~label cs;
  List.iter
    (fun v ->
      if v / 1_000_000 = 0 then
        Alcotest.failf "%s: dead worker's value %d was applied" label v)
    cs

let test_orphan_stack name seed () =
  let impl = R.find_stack name in
  let inst = impl.R.s_make () in
  run_orphan
    ~label:(Printf.sprintf "%s stack/%d" name seed)
    ~handle_ops:(fun () ->
      let o = inst.R.s_handle () in
      ((fun v -> o.R.s_push v), o.R.s_flush, o.R.s_abandon))
    ~contents:inst.R.s_contents ~drain:inst.R.s_drain seed;
  let outcome = Conformance.check_stack ~rounds:2 (R.find_stack name) in
  Alcotest.(check int) "conformance clean after orphan recovery" 0
    outcome.Conformance.violations

let test_orphan_queue name seed () =
  let impl = R.find_queue name in
  let inst = impl.R.q_make () in
  run_orphan
    ~label:(Printf.sprintf "%s queue/%d" name seed)
    ~handle_ops:(fun () ->
      let o = inst.R.q_handle () in
      ((fun v -> o.R.q_enq v), o.R.q_flush, o.R.q_abandon))
    ~contents:inst.R.q_contents ~drain:inst.R.q_drain seed;
  let outcome = Conformance.check_queue ~rounds:2 (R.find_queue name) in
  Alcotest.(check int) "conformance clean after orphan recovery" 0
    outcome.Conformance.violations

let test_orphan_set name seed () =
  let impl = R.find_set name in
  let inst = impl.R.l_make () in
  run_orphan
    ~label:(Printf.sprintf "%s set/%d" name seed)
    ~handle_ops:(fun () ->
      let o = inst.R.l_handle () in
      ((fun v -> Future.map ignore (o.R.l_insert v)), o.R.l_flush,
       o.R.l_abandon))
    ~contents:inst.R.l_contents ~drain:inst.R.l_drain seed;
  let outcome = Conformance.check_set ~rounds:2 (R.find_set name) in
  Alcotest.(check int) "conformance clean after orphan recovery" 0
    outcome.Conformance.violations

(* A waiter blocked in an {e unbounded} [await] on the victim's future
   can only be released by mid-run recovery: the post-join sweep never
   runs while the waiter's own domain is still waiting. This is the
   schedule that requires the watchdog, not just the sweep. *)
let test_await_released_by_watchdog () =
  let published : int Future.t option Atomic.t = Atomic.make None in
  Faults.on "lifecycle.victim" (fun _ -> Faults.Kill);
  let worker () ~thread ~ops:_ =
    if thread = 0 then begin
      let f : int Future.t = Future.create () in
      Workload.Runner.set_abandon_hook (fun () ->
          if Future.poison f Future.Orphaned then 1 else 0);
      Atomic.set published (Some f);
      Faults.point "lifecycle.victim"
    end
    else begin
      let rec get () =
        match Atomic.get published with
        | Some f -> f
        | None ->
            Domain.cpu_relax ();
            get ()
      in
      match Future.await (get ()) with
      | _ -> Alcotest.fail "orphan was somehow fulfilled"
      | exception Future.Broken Future.Orphaned -> ()
    end
  in
  let m =
    with_timeout "await released by watchdog" (fun () ->
        Workload.Runner.run ~threads:2 ~repeats:1 ~ops_per_thread:1
          ~setup:(fun () -> ())
          ~worker ~watchdog:0.002 ())
  in
  Alcotest.(check int) "victim killed" 1 m.Workload.Runner.killed;
  Alcotest.(check bool) "watchdog recovered it" true
    (m.Workload.Runner.recovered >= 1);
  Alcotest.(check bool) "orphan poisoned" true
    (m.Workload.Runner.poisoned >= 1)

(* ------------------------- plan teardown ----------------------------- *)

(* Runner [?plan] owns its fault script's lifetime: installed at each
   repeat's start, uninstalled (script cleared, counters reset) on every
   exit path — normal completion, scripted kills, and a worker's genuine
   failure re-raised to the caller — so a failing repeat never leaks its
   script into later runs. *)

let test_runner_plan_uninstalled_after_kills () =
  let plan = [ { Faults.pt = "plan.t"; at = 0; act = Faults.Kill } ] in
  let worker () ~thread:_ ~ops:_ = Faults.point "plan.t" in
  let m =
    Workload.Runner.run ~threads:2 ~repeats:2 ~ops_per_thread:1
      ~setup:(fun () -> ())
      ~worker ~plan ()
  in
  (* [at = 0] kills the first hit of each repeat: reinstallation per
     repeat resets the hit indices, so exactly one worker dies per
     repeat, not just in the first. *)
  Alcotest.(check int) "one scripted kill per repeat" 2
    m.Workload.Runner.killed;
  Alcotest.(check int) "counters reset by uninstall" 0 (Faults.hits "plan.t");
  Faults.point "plan.t";
  Alcotest.(check int) "script cleared: the point is inert" 0
    (Faults.hits "plan.t")

let test_runner_plan_uninstalled_on_failure () =
  let plan = [ { Faults.pt = "plan.f"; at = 0; act = Faults.Delay 1 } ] in
  let worker () ~thread:_ ~ops:_ =
    Faults.point "plan.f";
    failwith "genuine worker failure"
  in
  (match
     Workload.Runner.run ~threads:1 ~repeats:1 ~ops_per_thread:1
       ~setup:(fun () -> ())
       ~worker ~plan ()
   with
  | _ -> Alcotest.fail "genuine failure was not re-raised"
  | exception Failure _ -> ());
  Faults.point "plan.f";
  Alcotest.(check int) "script cleared on the failure path" 0
    (Faults.hits "plan.f");
  (* The slate is clean for whoever installs next: a fresh script on the
     same point sees hit indices from zero. *)
  let seen = ref [] in
  Faults.on "plan.f" (fun k ->
      seen := k :: !seen;
      Faults.Nothing);
  Faults.point "plan.f";
  Alcotest.(check (list int)) "fresh script counts from zero" [ 0 ] !seen

let test_runner_plan_uninstalled_with_watchdog_recovery () =
  (* The uninstall must also cover the watchdog-recovery path: the
     victim dies at the scripted point, its abandon hook runs from the
     watchdog, and the plan still comes down with the repeat. *)
  let plan = [ { Faults.pt = "plan.w"; at = 0; act = Faults.Kill } ] in
  let poisoned = ref 0 in
  let worker () ~thread ~ops:_ =
    let f : int Future.t = Future.create () in
    Workload.Runner.set_abandon_hook (fun () ->
        if Future.poison f Future.Orphaned then 1 else 0);
    if thread = 0 then Faults.point "plan.w"
    else Unix.sleepf 0.01
  in
  let m =
    Workload.Runner.run ~threads:2 ~repeats:1 ~ops_per_thread:1
      ~setup:(fun () -> ())
      ~worker ~plan ~watchdog:0.002 ()
  in
  poisoned := m.Workload.Runner.poisoned;
  Alcotest.(check int) "victim killed" 1 m.Workload.Runner.killed;
  Alcotest.(check bool) "victim recovered" true
    (m.Workload.Runner.recovered >= 1);
  Alcotest.(check bool) "orphan poisoned" true (!poisoned >= 1);
  Faults.point "plan.w";
  Alcotest.(check int) "script cleared after watchdog recovery" 0
    (Faults.hits "plan.w")

(* ------------------------ cancellation windows ------------------------ *)

let test_weak_stack_cancelled_pop_not_eliminated () =
  let s = Fl.Weak_stack.create ~elimination:true () in
  let h = Fl.Weak_stack.handle s in
  let fp = Fl.Weak_stack.pop h in
  Alcotest.(check bool) "pop cancelled" true (Future.cancel fp);
  (* The push must skip the cancelled pop's corpse, not hand it the
     value: elimination pairs only live partners. *)
  let fpush = Fl.Weak_stack.push h 5 in
  Fl.Weak_stack.flush h;
  Alcotest.(check unit) "push applied" () (Future.force fpush);
  Alcotest.(check (list int)) "value reached the stack, not the corpse"
    [ 5 ]
    (Lockfree.Treiber_stack.to_list (Fl.Weak_stack.shared s));
  Alcotest.check_raises "cancelled pop raises" Future.Cancelled (fun () ->
      ignore (Future.force fp))

(* One row per handle type: three ops, the middle one cancelled, then a
   flush. The flush must not raise, both survivors must be fulfilled
   with their results, and the cancelled op must leave no trace in the
   shared structure. *)
module Int_key = struct
  type t = int

  let compare = Int.compare
  let hash = Hashtbl.hash
end

module HSet = Lockfree.Harris_list.Make (Int_key)
module Kv = Lockfree.Harris_kv.Make (Int_key)

type cancel_op = { result : unit -> string; cancel : unit -> bool }

type cancel_row = {
  issue : int -> cancel_op;
  flush : unit -> unit;
  shared : unit -> string;
  survivor : string;  (* the result of the first and third op *)
  remains : string;  (* [shared] after the flush *)
}

let cancel_op f show =
  {
    result = (fun () -> show (Future.force f));
    cancel = (fun () -> Future.cancel f);
  }

let ints l = String.concat ";" (List.map string_of_int l)
let unit () = "()"

let binds l =
  String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%d=%s" k v) l)

let seq_row ~add ~flush ~shared ~remains =
  {
    issue = (fun k -> cancel_op (add k) unit);
    flush;
    shared = (fun () -> ints (shared ()));
    survivor = "()";
    remains;
  }

let set_row ~insert ~flush ~shared =
  {
    issue = (fun k -> cancel_op (insert k) string_of_bool);
    flush;
    shared = (fun () -> ints (HSet.to_list (shared ())));
    survivor = "true";
    remains = "1;3";
  }

let map_row ~insert ~flush ~bindings =
  {
    issue = (fun k -> cancel_op (insert k (string_of_int k)) string_of_bool);
    flush;
    shared = (fun () -> binds (bindings ()));
    survivor = "true";
    remains = "1=1;3=3";
  }

module WL = Fl.Weak_list.Make (Int_key)
module ML = Fl.Medium_list.Make (Int_key)
module TL = Fl.Txn_list.Make (Int_key)
module WM = Fl.Weak_map.Make (Int_key)
module SM = Fl.Shard_map.Make (Int_key)

let cancel_rows =
  [
    ( "weak stack",
      fun () ->
        let module S = Fl.Weak_stack in
        let s = S.create ~elimination:false () in
        let h = S.handle s in
        seq_row ~add:(S.push h) ~flush:(fun () -> S.flush h) ~remains:"3;1"
          ~shared:(fun () -> Lockfree.Treiber_stack.to_list (S.shared s)) );
    ( "medium stack",
      fun () ->
        let module S = Fl.Medium_stack in
        let s = S.create () in
        let h = S.handle s in
        seq_row ~add:(S.push h) ~flush:(fun () -> S.flush h) ~remains:"3;1"
          ~shared:(fun () -> Lockfree.Treiber_stack.to_list (S.shared s)) );
    ( "weak queue",
      fun () ->
        let module Q = Fl.Weak_queue in
        let q = Q.create () in
        let h = Q.handle q in
        seq_row ~add:(Q.enqueue h) ~flush:(fun () -> Q.flush h) ~remains:"1;3"
          ~shared:(fun () -> Lockfree.Ms_queue.to_list (Q.shared q)) );
    ( "medium queue",
      fun () ->
        let module Q = Fl.Medium_queue in
        let q = Q.create () in
        let h = Q.handle q in
        seq_row ~add:(Q.enqueue h) ~flush:(fun () -> Q.flush h) ~remains:"1;3"
          ~shared:(fun () -> Lockfree.Ms_queue.to_list (Q.shared q)) );
    ( "weak list",
      fun () ->
        let s = WL.create () in
        let h = WL.handle s in
        set_row ~insert:(WL.insert h) ~flush:(fun () -> WL.flush h)
          ~shared:(fun () -> WL.shared s) );
    ( "medium list",
      fun () ->
        let s = ML.create () in
        let h = ML.handle s in
        set_row ~insert:(ML.insert h) ~flush:(fun () -> ML.flush h)
          ~shared:(fun () -> ML.shared s) );
    ( "txn list",
      fun () ->
        let s = TL.create () in
        let h = TL.handle s in
        set_row ~insert:(TL.insert h) ~flush:(fun () -> TL.flush h)
          ~shared:(fun () -> TL.shared s) );
    ( "weak map",
      fun () ->
        let m = WM.create () in
        let h = WM.handle m in
        map_row ~insert:(WM.insert h) ~flush:(fun () -> WM.flush h)
          ~bindings:(fun () -> Kv.bindings (WM.shared m)) );
    ( "shard map",
      fun () ->
        let m = SM.create () in
        let h = SM.handle m in
        map_row ~insert:(SM.insert h) ~flush:(fun () -> SM.flush h)
          ~bindings:(fun () -> SM.bindings m) );
  ]

let test_cancel_in_window make () =
  let r = make () in
  let first = r.issue 1 in
  let middle = r.issue 2 in
  let third = r.issue 3 in
  Alcotest.(check bool) "cancel middle op" true (middle.cancel ());
  r.flush ();
  Alcotest.(check string) "older survivor applied" r.survivor
    (first.result ());
  Alcotest.(check string) "younger survivor applied" r.survivor
    (third.result ());
  Alcotest.check_raises "cancelled op raises" Future.Cancelled (fun () ->
      ignore (middle.result ()));
  Alcotest.(check string) "cancelled op left no trace" r.remains (r.shared ())

let test_slack_abandon_drops_thunks () =
  let sl = Fl.Slack.create 8 in
  let ran = ref 0 in
  for _ = 1 to 3 do
    Fl.Slack.note sl (fun () -> incr ran)
  done;
  Alcotest.(check int) "all thunks dropped" 3 (Fl.Slack.abandon sl);
  Alcotest.(check int) "none executed" 0 !ran;
  Alcotest.(check int) "window empty" 0 (Fl.Slack.pending sl)

(* ------------------------------ suite -------------------------------- *)

(* The seed lists below pick the recorded schedules each run exercises.
   FLDS_TEST_SEED=<n> replaces every list with just [n] so a failing
   schedule can be re-run in isolation; on failure each seeded case
   prints the rerun incantation for exactly that schedule. *)
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
      "seeded schedule failed — rerun just it with FLDS_TEST_SEED=%d\n%!" seed;
    raise e

let takeover_seeds = seeds_from_env [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
let bounded_wait_seeds = seeds_from_env [ 21; 22; 23 ]
let chaos_seeds = seeds_from_env [ 41; 42 ]

let () =
  Alcotest.run "faults"
    [
      ( "points",
        [
          Alcotest.test_case "disabled is a no-op" `Quick
            (with_clean_faults test_point_disabled_noop);
          Alcotest.test_case "scripted actions" `Quick
            (with_clean_faults test_scripted_actions);
          Alcotest.test_case "delay and sleep" `Quick
            (with_clean_faults test_scripted_delay_and_sleep);
          Alcotest.test_case "seeded mode" `Quick
            (with_clean_faults test_seeded_mode_deterministic);
          Alcotest.test_case "reset counters" `Quick
            (with_clean_faults test_reset_counters);
        ] );
      ( "takeover",
        List.map
          (fun seed ->
            Alcotest.test_case
              (Printf.sprintf "stalled combiner, schedule %d" seed)
              `Slow
              (with_clean_faults (with_seed_reported seed (test_takeover seed))))
          takeover_seeds
        @ [
            Alcotest.test_case "dead combiner leaves lease held" `Slow
              (with_clean_faults test_takeover_after_death);
            Alcotest.test_case "apply_op exception answers all" `Slow
              (with_clean_faults test_apply_op_exception_answers_all);
          ] );
      ( "bounded-waits",
        List.map
          (fun seed ->
            Alcotest.test_case
              (Printf.sprintf "stalled fulfiller, schedule %d" seed)
              `Slow
              (with_clean_faults
                 (with_seed_reported seed
                    (test_await_for_timeout_and_recovery seed))))
          bounded_wait_seeds
        @ [
            Alcotest.test_case "force_until ready/evaluator" `Quick
              (with_clean_faults test_force_until_ready_and_evaluator);
            Alcotest.test_case "spinlock try_acquire_for" `Slow
              (with_clean_faults test_spinlock_try_acquire_for);
          ] );
      ( "chaos",
        List.concat_map
          (fun seed ->
            List.concat_map
              (fun name ->
                [
                  Alcotest.test_case
                    (Printf.sprintf "%s stack, chaos seed %d" name seed)
                    `Slow
                    (with_clean_faults
                       (with_seed_reported seed (test_stack_chaos name seed)));
                  Alcotest.test_case
                    (Printf.sprintf "%s queue, chaos seed %d" name seed)
                    `Slow
                    (with_clean_faults
                       (with_seed_reported seed (test_queue_chaos name seed)));
                ])
              [ "strong"; "medium"; "weak" ])
          chaos_seeds );
      ( "lifecycle",
        [
          Alcotest.test_case "weak stack orphan, schedule 51" `Slow
            (with_clean_faults (test_orphan_stack "weak" 51));
          Alcotest.test_case "weak stack orphan, schedule 52" `Slow
            (with_clean_faults (test_orphan_stack "weak" 52));
          Alcotest.test_case "medium stack orphan, schedule 53" `Slow
            (with_clean_faults (test_orphan_stack "medium" 53));
          Alcotest.test_case "weak queue orphan, schedule 54" `Slow
            (with_clean_faults (test_orphan_queue "weak" 54));
          Alcotest.test_case "medium queue orphan, schedule 55" `Slow
            (with_clean_faults (test_orphan_queue "medium" 55));
          Alcotest.test_case "weak set orphan, schedule 56" `Slow
            (with_clean_faults (test_orphan_set "weak" 56));
          Alcotest.test_case "medium set orphan, schedule 57" `Slow
            (with_clean_faults (test_orphan_set "medium" 57));
          Alcotest.test_case "txn set orphan, schedule 58" `Slow
            (with_clean_faults (test_orphan_set "txn" 58));
          Alcotest.test_case "await released by watchdog" `Slow
            (with_clean_faults test_await_released_by_watchdog);
          Alcotest.test_case "runner plan uninstalled after kills" `Quick
            (with_clean_faults test_runner_plan_uninstalled_after_kills);
          Alcotest.test_case "runner plan uninstalled on failure" `Quick
            (with_clean_faults test_runner_plan_uninstalled_on_failure);
          Alcotest.test_case "runner plan uninstalled after watchdog recovery"
            `Slow
            (with_clean_faults
               test_runner_plan_uninstalled_with_watchdog_recovery);
          Alcotest.test_case "cancelled pop not eliminated" `Quick
            (with_clean_faults test_weak_stack_cancelled_pop_not_eliminated);
          Alcotest.test_case "slack abandon drops thunks" `Quick
            (with_clean_faults test_slack_abandon_drops_thunks);
        ]
        @ List.map
            (fun (name, make) ->
              Alcotest.test_case (name ^ " cancel in window") `Quick
                (with_clean_faults (test_cancel_in_window make)))
            cancel_rows );
    ]
