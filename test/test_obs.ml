(* Observability subsystem tests: histogram bucket math, the runtime
   switch's no-op guarantee, ring-buffer overwrite semantics, merged
   multi-domain export ordering, the future-lifecycle round trip
   (every terminal state emits exactly one terminal event), and the
   chaos integration (a scripted kill whose poison events precede the
   recovery event in the trace). *)

module H = Obs.Histogram
module E = Obs.Event
module T = Obs.Trace
module M = Obs.Metrics

(* Every test leaves the recorder exactly as it found it: switch off,
   rings empty, counters zeroed, capacity back to the default. Stride 1
   disables lifecycle sampling so exact-count assertions hold; the
   default stride is restored afterwards. *)
let fresh f () =
  let stride = Obs.sample_every () in
  let conf = Obs.conformance_stride () in
  Obs.set_enabled false;
  Obs.set_sample_every 1;
  Obs.set_conformance_stride 0;
  T.set_capacity T.default_capacity;
  T.clear ();
  M.reset ();
  Fun.protect f ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.set_sample_every stride;
      Obs.set_conformance_stride conf;
      T.set_capacity T.default_capacity;
      T.clear ();
      M.reset ())

(* ------------------------------ histogram ------------------------------ *)

(* Buckets must cover [0, max_int] monotonically, resolve small values
   exactly, and bound relative error: a value lands in a bucket whose
   lower bound is within one sub-bucket width below it. *)
let test_histogram_buckets () =
  for v = 0 to 7 do
    Alcotest.(check int)
      (Printf.sprintf "value %d is exact" v)
      v
      (H.value_of_bucket (H.bucket_of_value v))
  done;
  let samples =
    [ 8; 9; 15; 16; 17; 100; 1_000; 123_456; 1_000_000_000; max_int ]
  in
  List.iter
    (fun v ->
      let b = H.bucket_of_value v in
      Alcotest.(check bool)
        (Printf.sprintf "bucket of %d in range" v)
        true
        (b >= 0 && b < H.buckets);
      let lo = H.value_of_bucket b in
      Alcotest.(check bool)
        (Printf.sprintf "lower bound of %d's bucket is <= it" v)
        true (lo <= v);
      (* Four sub-buckets per power of two: the lower bound is within
         25% of the value (looser near the top where buckets saturate,
         so skip the bound for max_int). *)
      if v < max_int / 2 then
        Alcotest.(check bool)
          (Printf.sprintf "relative error for %d" v)
          true
          (float_of_int (v - lo) <= (0.25 *. float_of_int v) +. 1.))
    samples;
  (* Monotone: bucket index never decreases with value. *)
  let prev = ref (-1) in
  List.iter
    (fun v ->
      let b = H.bucket_of_value v in
      Alcotest.(check bool)
        (Printf.sprintf "monotone at %d" v)
        true (b >= !prev);
      prev := b)
    [ 0; 1; 2; 3; 7; 8; 20; 63; 64; 1_000; 65_536; 1_000_000; max_int ]

let test_histogram_record_percentiles () =
  let h = H.create () in
  (* 100 exact small values: percentile math is transparent. *)
  for v = 1 to 100 do
    H.record h (v mod 8)
    (* values 0..7, exact buckets *)
  done;
  let s = H.snapshot h in
  Alcotest.(check int) "count" 100 (H.count s);
  let expected_sum = ref 0 in
  for v = 1 to 100 do
    expected_sum := !expected_sum + (v mod 8)
  done;
  Alcotest.(check int) "exact sum survives bucketing" !expected_sum s.H.sum;
  Alcotest.(check bool)
    "p50 is a small value" true
    (H.percentile_value s 50.0 <= 7);
  Alcotest.(check int) "p100 = max recorded" 7 (H.percentile_value s 100.0);
  (* diff isolates a window *)
  let before = H.snapshot h in
  for _ = 1 to 10 do
    H.record h 1_000
  done;
  let after = H.snapshot h in
  let d = H.diff after before in
  Alcotest.(check int) "diff count" 10 (H.count d);
  Alcotest.(check int) "diff sum" 10_000 d.H.sum;
  Alcotest.(check bool)
    "diff p50 lands in 1000's bucket" true
    (let p = H.percentile_value d 50.0 in
     p <= 1_000 && p > 750)

(* Stats is now a re-export of the shared percentile math. *)
let test_stats_delegates () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "median" 3.0 (Workload.Stats.median xs);
  Alcotest.(check (float 1e-9))
    "same percentile function" (H.percentile xs 90.0)
    (Workload.Stats.percentile xs 90.0)

(* --------------------------- runtime switch --------------------------- *)

(* With the switch off, every wrapper is a no-op: counters unchanged,
   rings untouched, and stamps are 0 so downstream wrappers also bail. *)
let test_switch_off_is_noop () =
  let before = M.snapshot () in
  let born = Obs.future_created () in
  Alcotest.(check int) "birth stamp is 0 when off" 0 born;
  Obs.future_fulfilled ~born;
  Obs.future_cancelled ~born;
  Obs.future_poisoned ~born;
  let t0 = Obs.force_begin () in
  Alcotest.(check int) "force stamp is 0 when off" 0 t0;
  Obs.future_forced ~t0;
  Obs.splice ~kind:E.k_weak_stack_push ~n:7;
  Obs.elim_hit ~shard:0;
  Obs.elim_miss ~shard:0;
  Obs.combiner_acquire ();
  Obs.worker_killed ~worker:0;
  let after = M.snapshot () in
  let d = M.diff after before in
  Alcotest.(check int) "no futures counted" 0 d.M.futures_created;
  Alcotest.(check int) "no splices counted" 0 d.M.splices;
  Alcotest.(check int) "no elim hits counted" 0 d.M.elim_hits;
  Alcotest.(check int) "no kills counted" 0 d.M.workers_killed;
  Alcotest.(check (list reject)) "trace ring untouched" []
    (List.map (fun _ -> Alcotest.fail "event recorded while off")
       (T.events ()))

(* A structure exercised with the switch off leaves no trace at all —
   the instrumented hot paths really are dormant. *)
let test_structures_silent_when_off () =
  let s = Fl.Weak_stack.create () in
  let h = Fl.Weak_stack.handle s in
  let futs = List.init 32 (fun i -> Fl.Weak_stack.push h i) in
  Fl.Weak_stack.flush h;
  List.iter (fun f -> Futures.Future.force f) futs;
  Alcotest.(check int) "no trace events" 0 (List.length (T.events ()));
  let snap = M.snapshot () in
  Alcotest.(check int) "no futures counted" 0 snap.M.futures_created;
  Alcotest.(check int) "no splices counted" 0 snap.M.splices

(* ----------------------------- trace ring ----------------------------- *)

(* Overwrite-oldest: a ring of capacity [c] receiving [k > c] events
   keeps exactly the last [c], and [dropped] accounts for the rest.
   [set_capacity] only affects rings created from now on, so the
   emitting domain must be fresh. *)
let test_ring_overwrite () =
  T.set_capacity 64;
  let total = 200 in
  let dom =
    Domain.spawn (fun () ->
        for i = 1 to total do
          T.emit_at ~ts:i E.elim_miss i 0
        done;
        (Domain.self () :> int))
  in
  let dom_id = Domain.join dom in
  let evs =
    List.filter (fun e -> e.T.e_dom = dom_id) (T.events ())
  in
  Alcotest.(check int) "ring keeps exactly its capacity" 64
    (List.length evs);
  Alcotest.(check bool)
    (Printf.sprintf "dropped >= %d" (total - 64))
    true
    (T.dropped () >= total - 64);
  (* The survivors are the *last* 64, in order. *)
  List.iteri
    (fun i e ->
      Alcotest.(check int)
        (Printf.sprintf "survivor %d" i)
        (total - 64 + 1 + i) e.T.e_ts)
    evs;
  T.clear ();
  Alcotest.(check int) "clear empties rings" 0 (List.length (T.events ()));
  Alcotest.(check int) "clear resets dropped" 0 (T.dropped ())

(* Export merges per-domain rings sorted by timestamp, even when the
   domains' rings interleave arbitrarily. *)
let test_multi_domain_ordering () =
  let barrier = Atomic.make 0 in
  let emitter n () =
    Atomic.incr barrier;
    while Atomic.get barrier < 2 do
      Domain.cpu_relax ()
    done;
    for i = 1 to n do
      T.emit E.elim_hit i 0;
      if i mod 8 = 0 then Domain.cpu_relax ()
    done;
    (Domain.self () :> int)
  in
  let d1 = Domain.spawn (emitter 300) in
  let d2 = Domain.spawn (emitter 300) in
  let id1 = Domain.join d1 and id2 = Domain.join d2 in
  let evs = T.events () in
  Alcotest.(check int) "all events survive" 600 (List.length evs);
  let doms =
    List.sort_uniq compare (List.map (fun e -> e.T.e_dom) evs)
  in
  Alcotest.(check (list int)) "both domains present"
    (List.sort compare [ id1; id2 ])
    doms;
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.T.e_ts <= b.T.e_ts && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "merged stream sorted by ts" true (sorted evs);
  (* And the JSON exporter agrees on the count. *)
  let file = Filename.temp_file "flds_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let n = T.export_file file in
      Alcotest.(check int) "exporter writes every event" 600 n;
      let body = In_channel.with_open_bin file In_channel.input_all in
      Alcotest.(check bool) "top-level traceEvents" true
        (String.length body > 0
        && body.[0] = '{'
        && (let found = ref false in
            String.iteri
              (fun i _ ->
                if
                  i + 13 <= String.length body
                  && String.sub body i 13 = "\"traceEvents\""
                then found := true)
              body;
            !found)))

(* ------------------------- conformance events ------------------------- *)

(* Completed-operation events for the online conformance monitor:
   [op_begin] stamps only when both the switch and a stride are armed,
   payloads pack [(value lsl 6) lor obj] with the duration in [e_b],
   value-residue sampling keeps matched add/remove pairs together (same
   value, same residue), and empty-returning ops — which carry no value
   to sample by — are recorded only at stride 1, the one stride that
   constrains every value. *)
let test_conformance_sampling () =
  (* Off by default, and off while the switch is off. *)
  Alcotest.(check int) "stride starts at 0" 0 (Obs.conformance_stride ());
  Obs.set_conformance_stride 8;
  Alcotest.(check int) "op stamp is 0 while the switch is off" 0
    (Obs.op_begin ());
  Obs.set_conformance_stride 0;
  Obs.set_enabled true;
  Alcotest.(check int) "op stamp is 0 when the stride is 0" 0
    (Obs.op_begin ());
  Obs.set_conformance_stride 8;
  Alcotest.(check int) "stride round-trips" 8 (Obs.conformance_stride ());
  let t0 = Obs.op_begin () in
  Alcotest.(check bool) "op stamp armed at stride 8" true (t0 > 0);
  (* A zero stamp (taken while the monitor was off) keeps the
     completion silent even now that the stride is armed. *)
  Obs.op_enq ~value:16 ~obj:3 ~t0:0;
  (* Value 16 is on-residue (16 mod 8 = 0): both halves of its pair
     record. Value 17 is off-residue: both halves stay silent, so the
     surviving history never has a remove without its add. *)
  Obs.op_enq ~value:16 ~obj:3 ~t0;
  Obs.op_deq ~value:16 ~obj:3 ~t0:(Obs.op_begin ());
  Obs.op_enq ~value:17 ~obj:3 ~t0:(Obs.op_begin ());
  Obs.op_deq ~value:17 ~obj:3 ~t0:(Obs.op_begin ());
  (* Empties can't be residue-sampled: dropped at stride 8... *)
  Obs.op_deq_empty ~obj:3 ~t0:(Obs.op_begin ());
  (* ...but kept at stride 1, where the full history is recorded. *)
  Obs.set_conformance_stride 1;
  Obs.op_pop_empty ~obj:5 ~t0:(Obs.op_begin ());
  Obs.set_enabled false;
  let evs = T.events () in
  let by tag = List.filter (fun e -> e.T.e_tag = tag) evs in
  let enqs = by E.op_enq and deqs = by E.op_deq in
  Alcotest.(check int) "exactly one enq recorded" 1 (List.length enqs);
  Alcotest.(check int) "exactly one deq recorded" 1 (List.length deqs);
  List.iter
    (fun e ->
      Alcotest.(check int) "payload object" 3 (e.T.e_a land 63);
      Alcotest.(check int) "payload value" 16 (e.T.e_a asr 6);
      Alcotest.(check bool) "duration non-negative" true (e.T.e_b >= 0))
    (enqs @ deqs);
  Alcotest.(check int) "no empty event at stride 8" 0
    (List.length (by E.op_deq_empty));
  let empties = by E.op_pop_empty in
  Alcotest.(check int) "empty event recorded at stride 1" 1
    (List.length empties);
  Alcotest.(check int) "empty payload is the object" 5
    ((List.hd empties).T.e_a land 63);
  Obs.set_conformance_stride (-3);
  Alcotest.(check int) "negative stride clamps to off" 0
    (Obs.conformance_stride ())

(* --------------------------- lifecycle trace --------------------------- *)

(* Every terminal state emits exactly one terminal event, tagged with
   the future's pendingness; forcing emits one forced event. *)
let test_lifecycle_roundtrip () =
  Obs.set_enabled true;
  let before = M.snapshot () in
  let f1 : int Futures.Future.t = Futures.Future.create () in
  let f2 : int Futures.Future.t = Futures.Future.create () in
  let f3 : int Futures.Future.t = Futures.Future.create () in
  Alcotest.(check bool) "fulfil" true (Futures.Future.try_fulfil f1 1);
  Alcotest.(check bool) "fulfil loses the second time" false
    (Futures.Future.try_fulfil f1 2);
  Alcotest.(check bool) "cancel" true (Futures.Future.cancel f2);
  Alcotest.(check bool) "cancel loses the second time" false
    (Futures.Future.cancel f2);
  Alcotest.(check bool) "poison" true
    (Futures.Future.poison f3 Futures.Future.Orphaned);
  (* Forcing a resolved future is not recorded (no wait to measure)… *)
  Alcotest.(check int) "force" 1 (Futures.Future.force f1);
  (* …but a force that finds the future unresolved is. *)
  let f4 : int Futures.Future.t =
    Futures.Future.create_with ~evaluator:(fun f ->
        ignore (Futures.Future.try_fulfil f 42 : bool))
  in
  Alcotest.(check int) "lazy force" 42 (Futures.Future.force f4);
  Obs.set_enabled false;
  let d = M.diff (M.snapshot ()) before in
  Alcotest.(check int) "4 created" 4 d.M.futures_created;
  Alcotest.(check int) "2 fulfilled" 2 d.M.futures_fulfilled;
  Alcotest.(check int) "1 cancelled" 1 d.M.futures_cancelled;
  Alcotest.(check int) "1 poisoned" 1 d.M.futures_poisoned;
  Alcotest.(check int) "1 forced" 1 d.M.futures_forced;
  Alcotest.(check int) "2 pendingness samples" 2
    (H.count d.M.pendingness_ns);
  let count tag =
    List.length (List.filter (fun e -> e.T.e_tag = tag) (T.events ()))
  in
  Alcotest.(check int) "created events" 4 (count E.future_created);
  Alcotest.(check int) "one fulfilled event per fulfilment" 2
    (count E.future_fulfilled);
  Alcotest.(check int) "exactly one cancelled event" 1
    (count E.future_cancelled);
  Alcotest.(check int) "exactly one poisoned event" 1
    (count E.future_poisoned);
  Alcotest.(check int) "exactly one forced event" 1 (count E.future_forced)

(* A future born while the switch was off stays untracked even if the
   switch is on by the time it resolves: no spurious terminal events. *)
let test_untracked_future () =
  let f : int Futures.Future.t = Futures.Future.create () in
  Obs.set_enabled true;
  ignore (Futures.Future.try_fulfil f 1 : bool);
  Obs.set_enabled false;
  let terminal =
    List.filter (fun e -> E.is_terminal e.T.e_tag) (T.events ())
  in
  Alcotest.(check int) "no terminal event for an untracked future" 0
    (List.length terminal)

(* Splice events carry the window size; a full flush of a weak stack
   handle emits one splice for the whole batch. *)
let test_splice_batch () =
  Obs.set_enabled true;
  let before = M.snapshot () in
  let s = Fl.Weak_stack.create () in
  let h = Fl.Weak_stack.handle s in
  let n = 24 in
  let futs = List.init n (fun i -> Fl.Weak_stack.push h i) in
  Fl.Weak_stack.flush h;
  List.iter (fun f -> Futures.Future.force f) futs;
  Obs.set_enabled false;
  let d = M.diff (M.snapshot ()) before in
  Alcotest.(check bool) "splices happened" true (d.M.splices >= 1);
  Alcotest.(check int) "splice_ops covers the batch" n d.M.splice_ops;
  Alcotest.(check bool) "mean batch size > 1 (amortization visible)" true
    (M.mean_splice_batch d > 1.0);
  (* Splice events carry batch size in [e_a], window kind in [e_b]. *)
  let pushes =
    List.filter
      (fun e ->
        e.T.e_tag = E.window_splice && e.T.e_b = E.k_weak_stack_push)
      (T.events ())
  in
  Alcotest.(check bool) "a push splice event exists" true (pushes <> []);
  Alcotest.(check int) "splice event sizes sum to the batch" n
    (List.fold_left (fun acc e -> acc + e.T.e_a) 0 pushes)

(* ------------------------- allocation budget ------------------------- *)

(* The record path allocates nothing: fulfilling tracked futures with
   the switch on costs the same minor words as with it off. Timing
   assertions are flaky in CI; allocation is deterministic. *)
let test_record_path_no_alloc () =
  if Faults.enabled () then Alcotest.skip ();
  let rounds = 2_000 in
  let words_per_op enabled =
    Obs.set_enabled enabled;
    (* Warm up: materialize this domain's ring and any lazy state. *)
    for _ = 1 to 64 do
      let f : int Futures.Future.t = Futures.Future.create () in
      ignore (Futures.Future.try_fulfil f 1 : bool);
      ignore (Futures.Future.force f : int)
    done;
    Gc.full_major ();
    let before = Gc.minor_words () in
    for _ = 1 to rounds do
      let f : int Futures.Future.t = Futures.Future.create () in
      ignore (Futures.Future.try_fulfil f 1 : bool);
      ignore (Futures.Future.force f : int)
    done;
    let after = Gc.minor_words () in
    Obs.set_enabled false;
    (after -. before) /. float_of_int rounds
  in
  let off = words_per_op false in
  let on = words_per_op true in
  Alcotest.(check bool)
    (Printf.sprintf
       "recording allocates nothing (off %.2f, on %.2f words/op)" off on)
    true
    (on -. off <= 0.5)

(* --------------------------- chaos integration --------------------------- *)

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
          Alcotest.failf "%s: no recovery within %.0fs (hang)" label seconds
        else begin
          Unix.sleepf 0.002;
          poll ()
        end
  in
  poll ()

(* Scripted kill schedule: thread 0 publishes futures into its window,
   registers its handle's abandon as recovery hook, and dies before
   flushing. The trace must show the kill, the poisons, and the
   recovery — and every poison timestamp must precede the recovery
   timestamp (the watchdog emits worker.recovered only after the
   abandon hook has poisoned the orphans). *)
let test_poison_precedes_recovery () =
  Obs.set_enabled true;
  Faults.on "lifecycle.victim" (fun _ -> Faults.Kill);
  let orphans = 5 in
  let s = Fl.Weak_stack.create () in
  let worker () ~thread ~ops =
    let h = Fl.Weak_stack.handle s in
    Workload.Runner.set_abandon_hook (fun () -> Fl.Weak_stack.abandon h);
    if thread = 0 then begin
      for j = 1 to orphans do
        ignore (Fl.Weak_stack.push h j : unit Futures.Future.t)
      done;
      Faults.point "lifecycle.victim";
      Alcotest.fail "victim survived its kill"
    end
    else
      for i = 1 to ops do
        Workload.Runner.heartbeat ();
        ignore (Fl.Weak_stack.push h (1_000 + i) : unit Futures.Future.t);
        if i mod 16 = 0 then Fl.Weak_stack.flush h
      done
  in
  let m =
    Fun.protect
      ~finally:(fun () -> Faults.clear_all ())
      (fun () ->
        with_timeout "poison-precedes-recovery" (fun () ->
            Workload.Runner.run ~threads:2 ~repeats:1 ~ops_per_thread:64
              ~setup:(fun () -> ())
              ~worker
              ~teardown:(fun () -> ())
              ~watchdog:0.002 ()))
  in
  Obs.set_enabled false;
  Alcotest.(check int) "victim killed" 1 m.Workload.Runner.killed;
  Alcotest.(check bool) "runner recovered" true
    (m.Workload.Runner.recovered >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "orphans poisoned (got %d)" m.Workload.Runner.poisoned)
    true
    (m.Workload.Runner.poisoned >= orphans);
  let evs = T.events () in
  let find tag = List.filter (fun e -> e.T.e_tag = tag) evs in
  let kills = find E.worker_killed in
  let poisons = find E.future_poisoned in
  let recoveries = find E.worker_recovered in
  Alcotest.(check int) "one worker.killed event" 1 (List.length kills);
  Alcotest.(check bool) "worker.recovered event present" true
    (recoveries <> []);
  Alcotest.(check bool)
    (Printf.sprintf "poison events present (got %d)" (List.length poisons))
    true
    (List.length poisons >= orphans);
  let first_recovery =
    List.fold_left
      (fun acc e -> min acc e.T.e_ts)
      max_int recoveries
  in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        "every poison precedes the recovery event" true
        (p.T.e_ts <= first_recovery))
    poisons;
  let recovery = List.hd recoveries in
  Alcotest.(check bool) "recovery event reports the poison count" true
    (recovery.T.e_b >= orphans)

(* Snapshot/diff under concurrent recording: counters are monotone and
   snapshots read stripe-by-stripe, so successive diffs taken by one
   reader are non-negative and telescope — summing every epoch's diff
   (plus the final tail) must account for every recorded event exactly,
   no losses and no double counting. *)
let test_concurrent_snapshot_diff () =
  Obs.set_enabled true;
  let domains = 4 and per = 20_000 in
  let done_ = Atomic.make 0 in
  let worker () =
    for _ = 1 to per do
      let b = Obs.future_created () in
      Obs.future_fulfilled ~born:b
    done;
    Atomic.incr done_
  in
  let created = ref 0 and fulfilled = ref 0 in
  (* Baseline before any worker records, or head-of-run events would
     fall outside every diff. *)
  let last = ref (M.snapshot ()) in
  let ds = List.init domains (fun _ -> Domain.spawn worker) in
  let absorb () =
    let now = M.snapshot () in
    let d = M.diff now !last in
    last := now;
    Alcotest.(check bool) "created delta non-negative" true
      (d.M.futures_created >= 0);
    Alcotest.(check bool) "fulfilled delta non-negative" true
      (d.M.futures_fulfilled >= 0);
    created := !created + d.M.futures_created;
    fulfilled := !fulfilled + d.M.futures_fulfilled
  in
  while Atomic.get done_ < domains do
    absorb ()
  done;
  List.iter Domain.join ds;
  absorb ();
  Alcotest.(check int) "every creation accounted across epochs"
    (domains * per) !created;
  Alcotest.(check int) "every fulfilment accounted across epochs"
    (domains * per) !fulfilled

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucket math" `Quick
            (fresh test_histogram_buckets);
          Alcotest.test_case "record / percentiles / diff" `Quick
            (fresh test_histogram_record_percentiles);
          Alcotest.test_case "Stats delegates" `Quick
            (fresh test_stats_delegates);
        ] );
      ( "switch",
        [
          Alcotest.test_case "wrappers are no-ops when off" `Quick
            (fresh test_switch_off_is_noop);
          Alcotest.test_case "structures silent when off" `Quick
            (fresh test_structures_silent_when_off);
          Alcotest.test_case "record path allocates nothing" `Quick
            (fresh test_record_path_no_alloc);
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring overwrites oldest" `Quick
            (fresh test_ring_overwrite);
          Alcotest.test_case "multi-domain export sorted" `Quick
            (fresh test_multi_domain_ordering);
          Alcotest.test_case "conformance sampling keeps pairs" `Quick
            (fresh test_conformance_sampling);
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "terminal states emit exactly once" `Quick
            (fresh test_lifecycle_roundtrip);
          Alcotest.test_case "untracked futures stay silent" `Quick
            (fresh test_untracked_future);
          Alcotest.test_case "splice events carry batch size" `Quick
            (fresh test_splice_batch);
          Alcotest.test_case "snapshot/diff under concurrent recording"
            `Quick
            (fresh test_concurrent_snapshot_diff);
        ] );
      ( "chaos",
        [
          Alcotest.test_case "poison precedes recovery in trace" `Quick
            (fresh test_poison_precedes_recovery);
        ] );
    ]
