(* Benchmark harness regenerating the evaluation of Kogan & Herlihy,
   "The Future(s) of Shared Data Structures" (PODC 2014), Section 5.

   One panel per (figure, slack) pair, matching the paper's plots:
   rows are thread counts, columns are the four implementations
   (lock-free baseline, weak-, medium- and strong-FL), cells are the time
   for all threads to complete their operations; the ratio in parentheses
   is the speedup of that implementation over the lock-free baseline
   (paper shape: >1 means the futures version wins).

   Subcommands:
     fig4 | fig5 | fig6   one figure (stack / queue / linked list)
     ablation             DESIGN.md ablations A-D
     micro                Bechamel single-op costs at slack 1 (paper §5.1)
     cas                  weak-queue CAS-per-op correlation (paper §5.2)
     extra                extension workloads (Zipf keys, asymmetric mix)
     shard                sharded FL store: perf vs the centralized map,
                          plus scripted kills at each transfer step
     chaos                seeded fault injection + recovery counters
     trace                cross-domain probe for the flight recorder
     service              open-loop service layer: saturation sweep over
                          offered load x backends, plus overload chaos
                          (bursty arrivals, scripted kills mid-overload)
     conformance          online-conformance panel: Lin.Stream monitor
                          throughput and the service sweep's sampling
                          overhead (10% gate under --assert-service)
     all                  everything above (minus chaos and trace)
   Options:
     --quick              small sizes for a fast smoke run
     --full               the paper's 100K ops per thread
     --ops N --repeats N --threads a,b,c --slacks a,b,c
     --obs                turn the observability subsystem on (same as
                          FLDS_OBS=1); adds an "obs" block to --json
     --trace PATH         implies --obs; at exit export the flight
                          recorder to PATH as Chrome trace_event JSON
     --conformance-stride N
                          implies --obs; record completed-op events for
                          values with residue 0 mod N (same as
                          FLDS_OBS_CONFORMANCE=1/N) *)

module Future = Futures.Future
module R = Fl.Registry
module SL = Workload.Slack_loop

type config = {
  threads : int list;
  slacks : int list;
  ops : int;
  repeats : int;
}

let default_config =
  {
    threads = [ 1; 2; 4; 8 ];
    slacks = [ 1; 10; 20; 100 ];
    ops = 20_000;
    repeats = 3;
  }

(* --------------------------- JSON output ----------------------------- *)

(* Machine-readable sink for CI and results/: every measurement taken
   while [--json PATH] is set is also appended here and written as one
   JSON document at exit. *)

let json_path : string option ref = ref None
let json_records : Json.t list ref = ref []

(* Observability: [--obs] flips the runtime switch (equivalent to
   FLDS_OBS=1); [--trace PATH] additionally exports the flight recorder
   at exit. Both work with every subcommand, chaos included. *)
let trace_path : string option ref = ref None

let int_num v = Json.Num (float_of_int v)

let record ~bench ~impl ~slack ~domains fields =
  if !json_path <> None then
    json_records :=
      Json.Obj
        (("bench", Json.Str bench) :: ("impl", Json.Str impl)
        :: ("slack", int_num slack) :: ("domains", int_num domains)
        :: List.map (fun (k, v) -> (k, Json.Num v)) fields)
      :: !json_records

let record_measurement ~bench ~impl ~slack (m : Workload.Runner.measurement) =
  record ~bench ~impl ~slack ~domains:m.Workload.Runner.threads
    [
      ("seconds", m.Workload.Runner.seconds);
      ("ops_per_s", m.Workload.Runner.throughput);
      ("cas_per_op", m.Workload.Runner.cas_per_op);
      ("minor_words_per_op", m.Workload.Runner.minor_words_per_op);
    ]

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let rev = try input_line ic with End_of_file -> "unknown" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> rev
    | _ -> "unknown"
  with _ -> "unknown"

(* When the recorder is on, the JSON document also carries an "obs"
   block: the optimization-telemetry summary (pendingness and force
   percentiles, splice batch size, elimination hit rate, lease and
   recovery counters) accumulated over the whole process run. *)
let obs_json_block () =
  if not (Obs.enabled ()) then []
  else begin
    let s = Obs.Metrics.snapshot () in
    let i k v = (k, int_num v) and f k v = (k, Json.Num v) in
    [
      ( "obs",
        Json.Obj
          [
            i "futures_created" s.Obs.Metrics.futures_created;
            i "futures_fulfilled" s.Obs.Metrics.futures_fulfilled;
            i "futures_forced" s.Obs.Metrics.futures_forced;
            i "futures_cancelled" s.Obs.Metrics.futures_cancelled;
            i "futures_poisoned" s.Obs.Metrics.futures_poisoned;
            i "futures_rejected" s.Obs.Metrics.futures_rejected;
            i "pendingness_p50_ns" (Obs.Metrics.pendingness_p50 s);
            i "pendingness_p99_ns" (Obs.Metrics.pendingness_p99 s);
            i "pendingness_p999_ns" (Obs.Metrics.pendingness_p999 s);
            i "force_p50_ns" (Obs.Metrics.force_p50 s);
            i "force_p99_ns" (Obs.Metrics.force_p99 s);
            i "force_p999_ns" (Obs.Metrics.force_p999 s);
            i "transfer_p999_ns" (Obs.Metrics.transfer_p999 s);
            i "splices" s.Obs.Metrics.splices;
            i "splice_ops" s.Obs.Metrics.splice_ops;
            f "mean_splice_batch" (Obs.Metrics.mean_splice_batch s);
            i "elim_hits" s.Obs.Metrics.elim_hits;
            i "elim_misses" s.Obs.Metrics.elim_misses;
            f "elim_hit_rate" (Obs.Metrics.elim_hit_rate s);
            i "elim_wait_p99_ns" (Obs.Metrics.elim_wait_p99 s);
            i "elim_wait_p999_ns" (Obs.Metrics.elim_wait_p999 s);
            i "combiner_acquires" s.Obs.Metrics.combiner_acquires;
            i "combiner_takeovers" s.Obs.Metrics.combiner_takeovers;
            i "combiner_retires" s.Obs.Metrics.combiner_retires;
            i "backoff_exhausted" s.Obs.Metrics.backoff_exhausted;
            i "workers_killed" s.Obs.Metrics.workers_killed;
            i "workers_recovered" s.Obs.Metrics.workers_recovered;
            i "workers_stalled" s.Obs.Metrics.workers_stalled;
            i "shard_degraded_finds" s.Obs.Metrics.shard_degraded_finds;
            i "service_admitted" s.Obs.Metrics.service_admitted;
            i "service_shed" s.Obs.Metrics.service_shed;
            i "service_degrades" s.Obs.Metrics.service_degrades;
            i "service_p50_ns" (Obs.Metrics.service_p50 s);
            i "service_p99_ns" (Obs.Metrics.service_p99 s);
            i "service_p999_ns" (Obs.Metrics.service_p999 s);
          ] );
    ]
  end

let write_json () =
  match !json_path with
  | None -> ()
  | Some path ->
      let doc =
        Json.Obj
          ([
             ("generated_by", Json.Str "bench/main.exe");
             ("git_rev", Json.Str (git_rev ()));
             ("records", Json.Arr (List.rev !json_records));
           ]
          @ obs_json_block ())
      in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Json.to_string doc);
          output_char oc '\n');
      Printf.eprintf "wrote %s (%d records)\n%!" path
        (List.length !json_records)

let write_trace () =
  match !trace_path with
  | None -> ()
  | Some path ->
      let n = Obs.Trace.export_file path in
      Printf.eprintf "wrote %s (%d events, %d dropped)\n%!" path n
        (Obs.Trace.dropped ())

let quick_config =
  { default_config with threads = [ 1; 2; 4 ]; ops = 2_000; repeats = 1 }

let full_config = { default_config with ops = 100_000; repeats = 10 }

(* --------------------------- panel runner --------------------------- *)

type column = {
  name : string;
  measure : slack:int -> threads:int -> Workload.Runner.measurement;
}

(* Each mix draws its ops from its own base seed plus the slack, so a
   panel's op sequences are fixed per (mix, slack, thread). *)
let stack_seed = 0xBEEF
let queue_seed = 0xF00D
let set_seed = 0xCAFE

let column cfg ~seed ?order (w : _ SL.t) =
  {
    name = w.SL.name;
    measure =
      (fun ~slack ~threads ->
        SL.measure ?order ~seed:(seed + slack) ~slack ~threads
          ~repeats:cfg.repeats ~ops:cfg.ops w);
  }

let print_table table =
  Workload.Report.print Format.std_formatter table;
  Format.print_newline ()

(* Run one panel per slack in [cfg.slacks]: rows = thread counts,
   columns = impls. Cells show completion time, with speedup vs the
   first (baseline) column in parentheses. *)
let run_panels ?bench cfg ~title columns =
  List.iter
    (fun slack ->
      let table =
        Workload.Report.create ~title:(title slack)
          ~columns:(List.map (fun c -> c.name) columns)
      in
      List.iter
        (fun threads ->
          let ms = List.map (fun c -> c.measure ~slack ~threads) columns in
          (match bench with
          | Some bench ->
              List.iter2
                (fun c m -> record_measurement ~bench ~impl:c.name ~slack m)
                columns ms
          | None -> ());
          let baseline =
            match ms with m :: _ -> m.Workload.Runner.seconds | [] -> nan
          in
          let cells =
            List.mapi
              (fun i m ->
                let t = m.Workload.Runner.seconds in
                if i = 0 then Workload.Report.seconds t
                else
                  Printf.sprintf "%s (x%.2f)" (Workload.Report.seconds t)
                    (baseline /. t))
              ms
          in
          Workload.Report.add_row table ~label:(string_of_int threads) ~cells)
        cfg.threads;
      print_table table)
    cfg.slacks

let run_figure ?bench cfg ~figure ~what columns =
  Format.printf "== %s: %s — %d ops/thread, %d repeat(s) ==@.@." figure what
    cfg.ops cfg.repeats;
  run_panels ?bench cfg
    ~title:
      (Printf.sprintf "%s, slack=%d (time; x = speedup vs lockfree)" figure)
    columns

let fig4 cfg =
  run_figure ~bench:"fig4" cfg ~figure:"Figure 4"
    ~what:"stacks, 50% push / 50% pop"
    (List.map (fun i -> column cfg ~seed:stack_seed (SL.stack i)) R.stack_impls)

let fig5 cfg =
  run_figure ~bench:"fig5" cfg ~figure:"Figure 5"
    ~what:"queues, 50% enq / 50% deq"
    (List.map (fun i -> column cfg ~seed:queue_seed (SL.queue i)) R.queue_impls)

(* List operations cost a traversal of ~2500 nodes each; scale the op
   count down so list panels complete in minutes on a small host. The
   relative shape is unaffected (every implementation pays the same
   scale). Use --ops to override. *)
let list_config cfg = { cfg with ops = max 500 (cfg.ops / 10) }

let fig6 cfg =
  let cfg = list_config cfg in
  run_figure ~bench:"fig6" cfg ~figure:"Figure 6"
    ~what:
      "linked lists, 20% ins / 20% rem / 60% ctn, 10K keys, half full \
       (ops scaled /10)"
    (List.map (fun i -> column cfg ~seed:set_seed (SL.set i)) R.set_impls)

(* ----------------------------- ablations ---------------------------- *)

let ablation cfg =
  Format.printf "== Ablations (DESIGN.md A-D) — %d ops/thread ==@.@." cfg.ops;
  let cfg = { cfg with slacks = List.filter (fun s -> s > 1) cfg.slacks } in
  let cfg = if cfg.slacks = [] then { cfg with slacks = [ 20 ] } else cfg in
  (* List ablations use the same /10 op scaling as Figure 6. Each panel's
     baseline column is the default configuration. *)
  let cfg_list = list_config cfg in
  let stack = column cfg ~seed:stack_seed
  and queue = column cfg ~seed:queue_seed
  and set = column cfg_list ~seed:set_seed in
  (* A: weak stack elimination on/off *)
  run_panels cfg
    ~title:
      (Printf.sprintf
         "Ablation A: weak stack elimination (slack=%d; x<1 means disabling \
          hurts)")
    [
      stack (SL.stack (R.find_stack "weak"));
      stack
        (SL.stack
           { s_name = "weak-noelim";
             s_make = (fun () -> R.weak_stack_with ~elimination:false ());
           });
    ];
  (* B: medium list search-resume hint on/off *)
  run_panels cfg_list
    ~title:(Printf.sprintf "Ablation B: medium list search resume (slack=%d)")
    [
      set (SL.set (R.find_set "medium"));
      set
        (SL.set
           { l_name = "medium-nohint";
             l_make = (fun () -> R.medium_set_with ~resume_hint:false);
           });
    ];
  (* C: strong list batch sorting on/off *)
  run_panels cfg_list
    ~title:(Printf.sprintf "Ablation C: strong list batch sort (slack=%d)")
    [
      set (SL.set (R.find_set "strong"));
      set
        (SL.set
           { l_name = "strong-nosort";
             l_make = (fun () -> R.strong_set_with ~sort_batch:false);
           });
    ];
  (* D: slack evaluation order. Forcing the newest future first lets one
     evaluation flush the whole window; oldest-first degrades every
     evaluation to a single operation (see Fl.Slack). Shown on the two
     structures whose evaluation stops at the forced future. *)
  let medium_queue = SL.queue (R.find_queue "medium")
  and medium_set = SL.set (R.find_set "medium") in
  run_panels cfg
    ~title:
      (Printf.sprintf
         "Ablation D: medium queue, slack evaluation order (slack=%d)")
    [
      queue medium_queue;
      queue ~order:Fl.Slack.Oldest_first
        { medium_queue with name = "medium-oldest" };
    ];
  run_panels cfg_list
    ~title:
      (Printf.sprintf
         "Ablation D: medium list, slack evaluation order (slack=%d)")
    [
      set medium_set;
      set ~order:Fl.Slack.Oldest_first
        { medium_set with name = "medium-oldest" };
    ]

(* ------------------------- CAS correlation -------------------------- *)

(* The paper validates the weak queue's running-time spike by correlating
   it with the average number of CAS operations per high-level operation
   (§5.2). This prints time and CAS/op side by side. *)
let cas_experiment cfg =
  Format.printf
    "== CAS correlation: weak-FL queue (paper §5.2) — %d ops/thread ==@.@."
    cfg.ops;
  let col = column cfg ~seed:queue_seed (SL.queue (R.find_queue "weak")) in
  List.iter
    (fun slack ->
      let table =
        Workload.Report.create
          ~title:(Printf.sprintf "weak queue, slack=%d" slack)
          ~columns:[ "time"; "cas/op" ]
      in
      List.iter
        (fun threads ->
          let m = col.measure ~slack ~threads in
          Workload.Report.add_row table
            ~label:(string_of_int threads)
            ~cells:
              [
                Workload.Report.seconds m.Workload.Runner.seconds;
                Printf.sprintf "%.2f" m.Workload.Runner.cas_per_op;
              ])
        cfg.threads;
      print_table table)
    cfg.slacks

(* ------------------------ extension workloads ----------------------- *)

(* Workloads beyond the paper's evaluation: Zipf-skewed keys (combining
   gets more same-key hits) and an asymmetric queue mix. *)

let extra cfg =
  let cfg_list = list_config cfg in
  Format.printf
    "== Extension: Zipf-skewed linked lists (exponent 1.0) — %d ops/thread      ==@.@."
    cfg_list.ops;
  run_panels cfg_list
    ~title:(Printf.sprintf "Zipf list, slack=%d")
    (List.map
       (fun i -> column cfg_list ~seed:0xD00D (SL.zipf_set i))
       R.set_impls);
  Format.printf
    "== Extension: asymmetric queue (80%% enq / 20%% deq) — %d ops/thread      ==@.@."
    cfg.ops;
  run_panels cfg
    ~title:(Printf.sprintf "asymmetric queue, slack=%d")
    (List.map
       (fun i -> column cfg ~seed:0xA5A5 (SL.asymmetric_queue i))
       R.queue_impls)

(* --------------------------- micro (§5.1) --------------------------- *)

(* Minor-allocation probe: words allocated per operation on the
   weak/medium stack & queue flush paths and the list and map lookup
   windows — a window of [alloc_window] pending operations, then one
   flush. This is the metric the ring-buffer pending windows target: the
   per-op cost must cover only the future and the spliced
   shared-structure node, not any transient window bookkeeping. *)
let alloc_window = 64
let alloc_iters = 2_000

let micro_alloc () =
  Format.printf
    "== Micro: minor words/op, window=%d pending ops then flush ==@.@."
    alloc_window;
  let measure ?(slack = alloc_window) name f =
    for _ = 1 to 10 do f () done;
    Gc.full_major ();
    let before = Gc.minor_words () in
    for _ = 1 to alloc_iters do f () done;
    let words = Gc.minor_words () -. before in
    let per_op = words /. float_of_int (alloc_iters * alloc_window) in
    Format.printf "  %-28s %8.1f minor words/op@." name per_op;
    record ~bench:"micro-alloc" ~impl:name ~slack ~domains:1
      [ ("minor_words_per_op", per_op) ]
  in
  (* One window of [n] operations ([op i] for i = 1..n), then a flush. *)
  let window ?slack ?(n = alloc_window) ~flush name op =
    measure ?slack name (fun () ->
        for i = 1 to n do
          op i
        done;
        flush ())
  in
  (let module S = Fl.Weak_stack in
   let h = S.handle (S.create ~elimination:false ()) in
   let window = window ~flush:(fun () -> S.flush h) in
   window "weak-stack push+flush" (fun i -> ignore (S.push h i));
   window "weak-stack pop+flush" (fun _ -> ignore (S.pop h)));
  (let module Q = Fl.Weak_queue in
   let h = Q.handle (Q.create ()) in
   let window = window ~flush:(fun () -> Q.flush h) in
   window "weak-queue enq+flush" (fun i -> ignore (Q.enqueue h i));
   window "weak-queue deq+flush" (fun _ -> ignore (Q.dequeue h)));
  (let module S = Fl.Medium_stack in
   let h = S.handle (S.create ()) in
   let window = window ~flush:(fun () -> S.flush h) in
   window "medium-stack push+flush" (fun i -> ignore (S.push h i));
   window ~n:(alloc_window / 2) "medium-stack mixed+flush" (fun i ->
       ignore (S.push h i);
       ignore (S.pop h)));
  (let module Q = Fl.Medium_queue in
   let h = Q.handle (Q.create ()) in
   let window = window ~flush:(fun () -> Q.flush h) in
   window "medium-queue enq+flush" (fun i -> ignore (Q.enqueue h i));
   window "medium-queue deq+flush" (fun _ -> ignore (Q.dequeue h)));
  (* Slack 1, the paper's direct overhead comparison: each op is noted
     with [Fl.Slack] at slack 1, which forces it at once, as the
     benchmark's stack-direct workload does; the Treiber stack alone is
     the lock-free baseline beside it. *)
  let sl = Fl.Slack.create 1 in
  let forced f = Fl.Slack.note sl (fun () -> ignore (Future.force f)) in
  let pairs = window ~slack:1 ~n:(alloc_window / 2) ~flush:ignore in
  (let module S = Fl.Weak_stack in
   let h = S.handle (S.create ()) in
   pairs "weak-stack push+pop slack-1" (fun i ->
       forced (S.push h i);
       forced (S.pop h)));
  (let module Q = Fl.Weak_queue in
   let h = Q.handle (Q.create ()) in
   pairs "weak-queue enq+deq slack-1" (fun i ->
       forced (Q.enqueue h i);
       forced (Q.dequeue h)));
  (let module T = Lockfree.Treiber_stack in
   let t = T.create () in
   pairs "lockfree-stack push+pop" (fun i ->
       T.push t i;
       ignore (T.pop t)));
  (* Lookups of keys 1..64 on empty sets and maps: the window and its
     sorted or in-order apply, not the traversal. *)
  let module K = struct
    type t = int

    let compare = Int.compare
  end in
  (let module L = Fl.Weak_list.Make (K) in
   let h = L.handle (L.create ()) in
   window ~flush:(fun () -> L.flush h) "weak-list contains+flush" (fun i ->
       ignore (L.contains h i)));
  (let module L = Fl.Medium_list.Make (K) in
   let h = L.handle (L.create ()) in
   window ~flush:(fun () -> L.flush h) "medium-list contains+flush" (fun i ->
       ignore (L.contains h i)));
  (let module L = Fl.Txn_list.Make (K) in
   let h = L.handle (L.create ()) in
   window ~flush:(fun () -> L.flush h) "txn-list contains+flush" (fun i ->
       ignore (L.contains h i)));
  (let module M = Fl.Weak_map.Make (K) in
   let h = M.handle (M.create ()) in
   window ~flush:(fun () -> M.flush h) "weak-map find+flush" (fun i ->
       ignore (M.find h i)));
  Format.print_newline ()

(* Measured cost of the enabled recorder: a single-domain window workload
   (push a window, flush, pop it back, flush — every op records lifecycle,
   force and splice events) timed with the switch off and again with it
   on. The budget in DESIGN.md §10 is < 10%. *)
let obs_overhead () =
  let was = Obs.enabled () in
  let s = Fl.Weak_stack.create ~elimination:false () in
  let h = Fl.Weak_stack.handle s in
  let window = 64 and rounds = 4_000 in
  let round () =
    for i = 1 to window do
      ignore (Fl.Weak_stack.push h i : unit Future.t)
    done;
    Fl.Weak_stack.flush h;
    for _ = 1 to window do
      ignore (Fl.Weak_stack.pop h : int option Future.t)
    done;
    Fl.Weak_stack.flush h
  in
  let time_rounds () =
    for _ = 1 to 200 do round () done;
    Gc.full_major ();
    let t0 = Sync.Mono.now () in
    for _ = 1 to rounds do round () done;
    Sync.Mono.now () -. t0
  in
  Obs.set_enabled false;
  let off = time_rounds () in
  Obs.set_enabled true;
  let on_ = time_rounds () in
  Obs.set_enabled was;
  let pct = (on_ -. off) /. off *. 100.0 in
  Format.printf
    "== Obs overhead: weak-stack window loop — recorder off %.3fs, on \
     %.3fs (%+.1f%%) ==@.@."
    off on_ pct;
  record ~bench:"obs-overhead" ~impl:"weak-stack-window" ~slack:window
    ~domains:1
    [ ("off_seconds", off); ("on_seconds", on_); ("overhead_pct", pct) ]

(* Cross-domain probe behind [trace] (and appended to [micro] when the
   recorder is on, so a `micro --trace` run always carries multi-domain
   events): two domains share one weak stack and one flat-combining
   stack, then exchange through an elimination array, emitting every
   event family — future lifecycle including cancellations, window
   splices, elimination hits and misses, combiner leases — from at least
   two domains. *)
let obs_probe () =
  let s = Fl.Weak_stack.create () in
  let fc = Combining.Fc_stack.create () in
  let ops = 2_000 in
  let worker seed () =
    let h = Fl.Weak_stack.handle s in
    let hf = Combining.Fc_stack.handle fc in
    let rng = Workload.Rng.create ~seed ~stream:0 in
    let sl = Fl.Slack.create 16 in
    for i = 1 to ops do
      (if Workload.Rng.bool rng then begin
         let f = Fl.Weak_stack.push h i in
         Fl.Slack.note sl (fun () -> Future.force f)
       end
       else begin
         let f = Fl.Weak_stack.pop h in
         Fl.Slack.note sl (fun () -> ignore (Future.force f : int option))
       end);
      if i mod 3 = 0 then
        if Workload.Rng.bool rng then Combining.Fc_stack.push hf i
        else ignore (Combining.Fc_stack.pop hf : int option);
      (* A few withdrawn ops, so terminal-state variety shows up. *)
      if i mod 97 = 0 then
        ignore (Future.cancel (Fl.Weak_stack.pop h) : bool)
    done;
    Fl.Slack.drain sl;
    Fl.Weak_stack.flush h
  in
  let d1 = Domain.spawn (worker 11) and d2 = Domain.spawn (worker 22) in
  Domain.join d1;
  Domain.join d2;
  (* Guaranteed elimination hits: one domain parks takes while this one
     gives until each value is claimed. One slot, so a give and a parked
     take always meet; a long patience keeps retries (one miss event
     each) rare, and the retry budget bounds the loop in case a parked
     take times out against a descheduled partner. *)
  let ex = Lockfree.Exchanger.create ~capacity:1 () in
  let taker =
    Domain.spawn (fun () ->
        for _ = 1 to 16 do
          ignore (Lockfree.Exchanger.take ~patience:10_000_000 ex : int option)
        done)
  in
  for _ = 1 to 16 do
    let budget = ref 1_000 in
    while !budget > 0 && not (Lockfree.Exchanger.give ~patience:10_000 ex 1) do
      decr budget
    done
  done;
  Domain.join taker

let trace_probe () =
  Obs.set_enabled true;
  Format.printf
    "== Trace: cross-domain probe (future lifecycle + splices + \
     elimination + combining) ==@.@.";
  obs_probe ();
  if !trace_path = None then begin
    (try Unix.mkdir "results" 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    trace_path := Some "results/TRACE_probe.json"
  end

(* Single-thread per-operation cost with slack 1 — the paper's direct
   overhead comparison of futures-based vs lock-free versions. *)
let micro () =
  let open Bechamel in
  Format.printf
    "== Micro: single-thread op cost, slack=1 (Bechamel, ns/op) ==@.@.";
  let stack_test (impl : R.stack_impl) =
    let inst = impl.s_make () in
    let o = inst.R.s_handle () in
    Test.make ~name:("stack-" ^ impl.s_name)
      (Staged.stage (fun () ->
           Future.force (o.R.s_push 1);
           ignore (Future.force (o.R.s_pop ()))))
  in
  let queue_test (impl : R.queue_impl) =
    let inst = impl.q_make () in
    let o = inst.R.q_handle () in
    Test.make ~name:("queue-" ^ impl.q_name)
      (Staged.stage (fun () ->
           Future.force (o.R.q_enq 1);
           ignore (Future.force (o.R.q_deq ()))))
  in
  let set_test (impl : R.set_impl) =
    let inst = SL.prefill_set (impl.l_make ()) in
    let o = inst.R.l_handle () in
    let k = ref 0 in
    Test.make ~name:("list-" ^ impl.l_name)
      (Staged.stage (fun () ->
           k := (!k + 7919) mod Workload.Distribution.default_key_range;
           ignore (Future.force (o.R.l_contains !k))))
  in
  let tests =
    List.map stack_test R.stack_impls
    @ List.map queue_test R.queue_impls
    @ List.map set_test R.set_impls
  in
  let grouped = Test.make_grouped ~name:"micro" ~fmt:"%s/%s" tests in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg_b =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg_b instances grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some (ns :: _) ->
          Format.printf "  %-24s %10.1f ns/op@." name ns;
          record ~bench:"micro" ~impl:name ~slack:1 ~domains:1
            [ ("ns_per_op", ns) ]
      | Some [] | None -> Format.printf "  %-24s (no estimate)@." name)
    (List.sort compare rows);
  Format.print_newline ();
  micro_alloc ();
  if Obs.enabled () then begin
    obs_overhead ();
    obs_probe ()
  end

(* ----------------------------- chaos -------------------------------- *)

(* Robustness run: seeded fault injection on every hot-path point
   (combining passes, record scans, spins, fulfils) plus one runner-level
   victim per repeat that dies or stalls mid-run. The interesting output
   is not the time but the recovery counters: how many workers were lost
   and how often a waiter usurped a stalled combiner's lease instead of
   hanging. Fault-free runs report 0 takeovers. *)
let chaos_seed = ref 2014

let chaos_bench cfg =
  let seed = !chaos_seed in
  Format.printf
    "== Chaos: flat combining under seeded faults (seed %d) — %d \
     ops/thread, %d repeat(s) ==@.@."
    seed cfg.ops cfg.repeats;
  (* Every cell runs with the watchdog on, so killed workers are also
     recovered (abandon hooks fire where registered; the recovered
     counter ticks either way) and the JSON sink gets the full lifecycle
     story: killed / takeovers / retired / poisoned / recovered. *)
  let watchdog = 0.002 in
  let emit ~impl ~threads ~takeovers ~retired (m : Workload.Runner.measurement)
      =
    record ~bench:"chaos" ~impl ~slack:0 ~domains:threads
      [
        ("seconds", m.Workload.Runner.seconds);
        ("killed", float_of_int m.Workload.Runner.killed);
        ("takeovers", float_of_int takeovers);
        ("retired", float_of_int retired);
        ("poisoned", float_of_int m.Workload.Runner.poisoned);
        ("recovered", float_of_int m.Workload.Runner.recovered);
        ("stall_warnings", float_of_int m.Workload.Runner.stall_warnings);
      ];
    Printf.sprintf "%s (%dk %dt %dp %dr)"
      (Workload.Report.seconds m.Workload.Runner.seconds)
      m.Workload.Runner.killed takeovers m.Workload.Runner.poisoned
      m.Workload.Runner.recovered
  in
  let cell ~impl ~threads ~stats ~run_measure =
    (* Seeded noise on every point, plus a scripted hard stall of the
       combiner every 1000th pass: 15 ms, comfortably past the ~6 ms a
       waiter needs to exhaust the default takeover budget of 64 backoff
       rounds, so multi-thread rows must show takeovers (a single thread
       has no waiter and shows 0). *)
    Faults.enable ~seed ();
    Faults.on "fc.pass" (fun k ->
        if k mod 1000 = 999 then Faults.Sleep 15e-3 else Faults.Nothing);
    let m =
      Fun.protect ~finally:Faults.clear_all (fun () ->
          run_measure ~chaos:(Workload.Runner.chaos ~seed ()))
    in
    let takeovers, retired = stats () in
    emit ~impl ~threads ~takeovers ~retired m
  in
  (* Flat-combining baselines: a 50/50 add/remove mix, one heartbeat per
     op. *)
  let fc_cell ~impl ~create ~handle ~op ~takeovers ~retired ~threads =
    let insts = ref [] in
    let setup () =
      let s = create () in
      insts := s :: !insts;
      s
    in
    let worker s ~thread ~ops =
      let h = handle s in
      let rng = Workload.Rng.create ~seed:(0xC0A5 + seed) ~stream:thread in
      for _ = 1 to ops do
        Workload.Runner.heartbeat ();
        op h (Workload.Rng.bool rng)
      done
    in
    let sum f = List.fold_left (fun a i -> a + f i) 0 !insts in
    cell ~impl ~threads
      ~stats:(fun () -> (sum takeovers, sum retired))
      ~run_measure:(fun ~chaos ->
        Workload.Runner.run ~threads ~repeats:cfg.repeats
          ~ops_per_thread:cfg.ops ~setup ~worker ~chaos ~watchdog ())
  in
  let stack_cell =
    let open Combining.Fc_stack in
    fc_cell ~impl:"fc-stack" ~create ~handle
      ~op:(fun h add -> if add then push h 1 else ignore (pop h))
      ~takeovers:combiner_takeovers ~retired:retired_records
  in
  let queue_cell =
    let open Combining.Fc_queue in
    fc_cell ~impl:"fc-queue" ~create ~handle
      ~op:(fun h add -> if add then enqueue h 1 else ignore (dequeue h))
      ~takeovers:combiner_takeovers ~retired:retired_records
  in
  (* Weak-FL stack through the registry: the futures path. Each worker
     registers its handle's abandon hook, so when a kill strikes the
     watchdog poisons the orphaned window ([poisoned] > 0 whenever a
     worker dies with pending futures) instead of leaving waiters stuck.
     The runner's own [Die] plan is polite — the truncated worker still
     runs its final flush — so the cell also scripts a hard mid-window
     kill on a point the loop crosses between ops, the schedule that
     actually orphans futures. *)
  let weak_cell ~threads =
    let impl = R.find_stack "weak" in
    let setup () = impl.R.s_make () in
    let worker (s : R.stack_instance) ~thread ~ops =
      let o = s.R.s_handle () in
      Workload.Runner.set_abandon_hook o.R.s_abandon;
      let rng = Workload.Rng.create ~seed:(0xC0A5 + seed) ~stream:thread in
      for i = 1 to ops do
        Workload.Runner.heartbeat ();
        Faults.point "bench.op";
        if Workload.Rng.bool rng then ignore (o.R.s_push 1 : unit Future.t)
        else ignore (o.R.s_pop () : int option Future.t);
        if i mod 64 = 0 then o.R.s_flush ()
      done;
      o.R.s_flush ()
    in
    cell ~impl:"weak-stack" ~threads
      ~stats:(fun () -> (0, 0))
      ~run_measure:(fun ~chaos ->
        (* Modular, not absolute: hit counters are process-global, so an
           absolute index would only ever fire in the first cell. *)
        Faults.on "bench.op" (fun k ->
            if k mod 1501 = 1500 then Faults.Kill else Faults.Nothing);
        Workload.Runner.run ~threads ~repeats:cfg.repeats
          ~ops_per_thread:cfg.ops ~setup ~worker ~chaos ~watchdog ())
  in
  let table =
    Workload.Report.create
      ~title:
        (Printf.sprintf
           "chaos, seed=%d (time; k=killed t=takeovers p=poisoned \
            r=recovered)"
           seed)
      ~columns:[ "fc-stack"; "fc-queue"; "weak-stack" ]
  in
  List.iter
    (fun threads ->
      Workload.Report.add_row table
        ~label:(string_of_int threads)
        ~cells:
          [ stack_cell ~threads; queue_cell ~threads; weak_cell ~threads ])
    cfg.threads;
  print_table table

(* ------------------------------ shard ------------------------------- *)

module ShardKey = struct
  type t = int

  let compare = Int.compare
  let hash x = x
end

module Shard = Fl.Shard_map.Make (ShardKey)
module BWM = Fl.Weak_map.Make (ShardKey)
module BKV = Lockfree.Harris_kv.Make (ShardKey)

let shard_key_range = 1024
let shard_lease = 0.01

(* The sharded-store benchmark: a perf panel (centralized weak map vs the
   sharded store at 2 and 8 buckets — sharding pays when handles mostly
   stay in their own buckets and costs transfers when they collide) and a
   chaos panel with a scripted kill at each transfer protocol step.
   Workers never force their futures: issue, flush every 64 ops, and let
   the transfer protocol route windows; teardown drains the map by
   deadline recovery, so a killed endpoint's in-flight window is poisoned,
   never leaked. *)
let shard_bench cfg =
  let seed = !chaos_seed in
  Format.printf
    "== Shard: sharded FL store (transfer protocol) — %d ops/thread, %d \
     repeat(s), seed %d ==@.@."
    cfg.ops cfg.repeats seed;
  let weak_measure ~threads =
    Workload.Runner.run ~threads ~repeats:cfg.repeats ~ops_per_thread:cfg.ops
      ~setup:(fun () -> BWM.create ())
      ~worker:(fun m ~thread ~ops ->
        let h = BWM.handle m in
        let rng = Workload.Rng.create ~seed:(0x5A4D + seed) ~stream:thread in
        for i = 1 to ops do
          let k = Workload.Rng.below rng shard_key_range in
          (match Workload.Rng.below rng 3 with
          | 0 -> ignore (BWM.insert h k i : bool Future.t)
          | 1 -> ignore (BWM.find h k : int option Future.t)
          | _ -> ignore (BWM.remove h k : int option Future.t));
          if i mod 64 = 0 then BWM.flush h
        done;
        BWM.flush h)
      ~cas_total:(fun m -> BKV.cas_count (BWM.shared m))
      ()
  in
  let insts : int Shard.t list ref = ref [] in
  let shard_setup ~buckets () =
    let m = Shard.create ~buckets ~lease:shard_lease ~grant_timeout:0.001 () in
    insts := m :: !insts;
    m
  in
  let shard_worker m ~thread ~ops =
    let h = Shard.handle m in
    Workload.Runner.set_abandon_hook (fun () -> Shard.abandon h);
    let rng = Workload.Rng.create ~seed:(0x5A4D + seed) ~stream:thread in
    for i = 1 to ops do
      Workload.Runner.heartbeat ();
      let k = Workload.Rng.below rng shard_key_range in
      (match Workload.Rng.below rng 3 with
      | 0 -> ignore (Shard.insert h k i : bool Future.t)
      | 1 -> ignore (Shard.find h k : int option Future.t)
      | _ -> ignore (Shard.remove h k : int option Future.t));
      if i mod 64 = 0 then Shard.flush h
    done;
    Shard.flush h
  in
  let drain m =
    let dh = Shard.handle m in
    let deadline = Sync.Mono.now () +. 2.0 in
    while Shard.in_flight m > 0 && Sync.Mono.now () < deadline do
      ignore (Shard.recover_all dh : int);
      Unix.sleepf 0.0005
    done
  in
  (* Measure one cell and return it with the protocol stats summed over
     that cell's map instances (fresh per repeat). *)
  let shard_measure ~buckets ?plan ~threads () =
    insts := [];
    let m =
      Workload.Runner.run ~threads ~repeats:cfg.repeats
        ~ops_per_thread:cfg.ops ~setup:(shard_setup ~buckets)
        ~worker:shard_worker ~teardown:drain ?plan ~watchdog:0.002 ()
    in
    let sum f =
      List.fold_left (fun a i -> a + f (Shard.stats i)) 0 !insts
    in
    let stats =
      [
        ("requests", sum (fun s -> s.Shard.requests));
        ("grants", sum (fun s -> s.Shard.grants));
        ("ships", sum (fun s -> s.Shard.ships));
        ("acks", sum (fun s -> s.Shard.acks));
        ("recovers", sum (fun s -> s.Shard.recovers));
        ("retries", sum (fun s -> s.Shard.retries));
        ("degraded_finds", sum (fun s -> s.Shard.degraded_finds));
        ("proto_poisoned", sum (fun s -> s.Shard.poisoned));
      ]
    in
    (m, stats)
  in
  let emit ~impl ~threads ?(extra = []) (m, stats) =
    record ~bench:"shard" ~impl ~slack:0 ~domains:threads
      (List.map (fun (k, v) -> (k, float_of_int v)) stats
      @ [
          ("seconds", m.Workload.Runner.seconds);
          ("ops_per_s", m.Workload.Runner.throughput);
          ("killed", float_of_int m.Workload.Runner.killed);
          ("poisoned", float_of_int m.Workload.Runner.poisoned);
          ("recovered", float_of_int m.Workload.Runner.recovered);
        ]
      @ extra);
    (m, stats)
  in
  (* Perf panel. *)
  let table =
    Workload.Report.create
      ~title:
        "shard: centralized weak map vs sharded store (time; x = speedup \
         vs weak-map; a=acks)"
      ~columns:[ "weak-map"; "shard-2"; "shard-8" ]
  in
  List.iter
    (fun threads ->
      let mw = weak_measure ~threads in
      record_measurement ~bench:"shard" ~impl:"weak-map" ~slack:0 mw;
      let m2, _ =
        emit ~impl:"shard-2" ~threads (shard_measure ~buckets:2 ~threads ())
      in
      let m8, _ =
        emit ~impl:"shard-8" ~threads (shard_measure ~buckets:8 ~threads ())
      in
      let base = mw.Workload.Runner.seconds in
      let cell (m : Workload.Runner.measurement) =
        Printf.sprintf "%s (x%.2f)"
          (Workload.Report.seconds m.Workload.Runner.seconds)
          (base /. m.Workload.Runner.seconds)
      in
      Workload.Report.add_row table
        ~label:(string_of_int threads)
        ~cells:
          [ Workload.Report.seconds base; cell m2; cell m8 ])
    cfg.threads;
  print_table table;
  (* Chaos panel: a scripted kill at each protocol step, installed as a
     Runner plan (and therefore uninstalled on every teardown path). A
     lease is held only while a window is applied, so the plan also
     stalls the first two lease holds at [shard.apply] for a fifth of
     the lease: another worker's flush requests the bucket meanwhile,
     the first transfer completes and the second reaches the kill. The
     victim is whichever domain hits the point second; the run must
     complete with the loss counted, poisoned, and recovered — never a
     hang. Single-thread rows are inert (no second handle, no transfer,
     the kill never fires). *)
  let stall at =
    { Faults.pt = "shard.apply"; at; act = Faults.Sleep (shard_lease /. 5.0) }
  in
  let kill_table =
    Workload.Report.create
      ~title:
        (Printf.sprintf
           "shard chaos, seed=%d: scripted kill per protocol step (time; \
            k=killed p=poisoned r=recovered)"
           seed)
      ~columns:[ "shard.grant"; "shard.ship"; "shard.ack" ]
  in
  List.iter
    (fun threads ->
      let cellp pt =
        let plan =
          [ stall 0; stall 1; { Faults.pt; at = 1; act = Faults.Kill } ]
        in
        let m, _ =
          emit ~impl:("kill-" ^ pt) ~threads
            (shard_measure ~buckets:4 ~plan ~threads ())
        in
        Printf.sprintf "%s (%dk %dp %dr)"
          (Workload.Report.seconds m.Workload.Runner.seconds)
          m.Workload.Runner.killed m.Workload.Runner.poisoned
          m.Workload.Runner.recovered
      in
      Workload.Report.add_row kill_table
        ~label:(string_of_int threads)
        ~cells:
          [ cellp "shard.grant"; cellp "shard.ship"; cellp "shard.ack" ])
    cfg.threads;
  print_table kill_table

(* ----------------------------- service ------------------------------ *)

(* Open-loop service saturation sweep (ROADMAP item 3). Per-worker
   Poisson offered rates spanning both sides of the saturation knee
   drive the session model (job queue + session store) for each backend;
   the Overload controller watches the coordinated-omission-safe sojourn
   tail and walks admit → squeeze → shed → degrade as the generator
   outruns the service. Below the knee nothing is shed and the sojourn
   tail is flat; past it the shed rate rises while the admitted subset
   keeps completing — shed, not stalled.

   A second panel replays overload chaos: bursty arrivals (the
   arrival-rate step at micro scale) past the knee with scripted kills
   at an admission decision, a transfer grant and the controller's own
   epoch, under the runner's watchdog. The liveness claim is simply that
   the panel terminates with its books balanced: every admitted op
   completed, failed, or died with a counted kill.

   [--assert-service] turns the gates into an exit code:
   - the lowest offered rate sheds nothing (zero sheds below the knee);
   - every cell's sojourn p999 stays under the liveness bound;
   - chaos cells kill at least one worker and still terminate. *)

module Svc = Workload.Service
module Ovl = Workload.Overload

let assert_service = ref false
let service_failures = ref 0

let service_fail fmt =
  Printf.ksprintf
    (fun msg ->
      if !assert_service then incr service_failures;
      Printf.eprintf "SERVICE %s: %s\n%!"
        (if !assert_service then "FAIL" else "note")
        msg)
    fmt

(* Liveness bound on the recorded tail: a sojourn beyond this means an
   admitted request effectively stalled rather than being shed. *)
let service_p999_bound_ns = 60_000_000_000

(* The sweep's overload budgets: generous force/pendingness budgets (we
   are not tuning the structures here) and a sojourn budget that is the
   open-loop signal. The budget must sit well above the worst single
   stall a healthy service can see — one bucket-lease transfer (5 ms) —
   or a lone transfer inside one epoch window reads as overload; 50 ms
   (10 leases) only trips when a real backlog accumulates. *)
let service_overload =
  {
    Ovl.default with
    p99_budget_ns = 50_000_000;
    pending_budget_ns = 500_000_000;
    sojourn_budget_ns = 50_000_000;
  }

(* A sweep cell's service: [workers] workers, [requests] each, under the
   sweep's overload budgets. *)
let service_config ~workers ~requests ~backend ~epoch_s process =
  {
    Svc.default_config with
    Svc.workers;
    requests_per_worker = requests;
    process;
    backend;
    overload = service_overload;
    epoch_s;
  }

let service_rates cfg =
  if cfg.ops <= 5_000 then [ 5_000.0; 50_000.0; 500_000.0 ]
  else [ 5_000.0; 25_000.0; 125_000.0; 625_000.0; 3_125_000.0 ]

let service_record ~impl ~rate ~workers (cfg_svc : Svc.config)
    (r : Svc.result) =
  record ~bench:"service" ~impl ~slack:cfg_svc.Svc.slack ~domains:workers
    [
      ("offered_rate_per_s", rate *. float_of_int workers);
      ( "achieved_rate_per_s",
        if r.Svc.measurement.Workload.Runner.seconds > 0.0 then
          float_of_int r.Svc.completed
          /. r.Svc.measurement.Workload.Runner.seconds
        else 0.0 );
      ("offered", float_of_int r.Svc.offered);
      ("admitted", float_of_int r.Svc.admitted);
      ("shed", float_of_int r.Svc.shed);
      ("shed_rate", Svc.shed_rate r);
      ("completed", float_of_int r.Svc.completed);
      ("failed", float_of_int r.Svc.failed);
      ("degraded_writes", float_of_int r.Svc.degraded_writes);
      ("retries", float_of_int r.Svc.retries);
      ("sojourn_p50_ns", float_of_int (Svc.sojourn_p r 50.0));
      ("sojourn_p99_ns", float_of_int (Svc.sojourn_p r 99.0));
      ("sojourn_p999_ns", float_of_int (Svc.sojourn_p r 99.9));
      ("max_stage", float_of_int (Ovl.stage_index r.Svc.max_stage));
      ("final_stage", float_of_int (Ovl.stage_index r.Svc.final_stage));
      ("escalations", float_of_int r.Svc.escalations);
      ("recoveries", float_of_int r.Svc.recoveries);
      ("controller_epochs", float_of_int r.Svc.controller_epochs);
      ("killed", float_of_int r.Svc.measurement.Workload.Runner.killed);
      ("poisoned", float_of_int r.Svc.measurement.Workload.Runner.poisoned);
    ]

let service_bench cfg =
  let workers = min 4 (List.fold_left max 2 cfg.threads) in
  let requests = cfg.ops in
  Format.printf
    "== Service: open-loop saturation sweep — %d workers, %d requests/worker, \
     %d repeat(s) ==@.@."
    workers requests cfg.repeats;
  let backends = [ Svc.Central; Svc.Sharded ] in
  let rates = service_rates cfg in
  let table =
    Workload.Report.create
      ~title:
        "service: sojourn p999 (ms) / shed rate / deepest stage, by offered \
         load"
      ~columns:(List.map Svc.backend_name backends)
  in
  let sweep rate =
    let cells =
      List.map
        (fun backend ->
          (* 10 ms epochs: long enough that one lease transfer does not
             dominate an epoch's percentile window. *)
          let cfg_svc =
            service_config ~workers ~requests ~backend ~epoch_s:0.01
              (Workload.Arrival.Poisson { rate })
          in
          let r = Svc.run ~repeats:cfg.repeats cfg_svc in
          let impl =
            Printf.sprintf "%s/%s" (Svc.backend_name backend)
              (Workload.Arrival.process_to_string cfg_svc.Svc.process)
          in
          service_record ~impl ~rate ~workers cfg_svc r;
          let p999 = Svc.sojourn_p r 99.9 in
          let total = workers * requests * cfg.repeats in
          if r.Svc.admitted + r.Svc.shed <> total then
            service_fail "%s: admitted %d + shed %d <> %d requests" impl
              r.Svc.admitted r.Svc.shed total;
          (* Books balance: every admitted op either completed or failed
             with a counted fate (a lease steal orphans the quiet
             owner's in-flight window — rare, but a legal fate). *)
          if r.Svc.completed + r.Svc.failed <> r.Svc.admitted then
            service_fail "%s: %d admitted but %d completed + %d failed"
              impl r.Svc.admitted r.Svc.completed r.Svc.failed;
          if p999 > service_p999_bound_ns then
            service_fail "%s: sojourn p999 %.1fs beyond the liveness bound"
              impl
              (float_of_int p999 /. 1e9);
          if rate = List.hd rates && r.Svc.shed > 0 then
            service_fail "%s: %d sheds below the knee" impl r.Svc.shed;
          Printf.sprintf "%.2f / %.2f / %s"
            (float_of_int p999 /. 1e6)
            (Svc.shed_rate r)
            (Ovl.stage_name r.Svc.max_stage))
        backends
    in
    Workload.Report.add_row table
      ~label:(Printf.sprintf "%.0f req/s" (rate *. float_of_int workers))
      ~cells
  in
  List.iter sweep rates;
  print_table table;
  (* Overload chaos: bursty arrivals past the knee, scripted kills at an
     admission decision, a bucket grant and the controller epoch.
     Conformance recording is suspended for the panel: a killed worker
     can apply an enqueue whose completion event was never emitted, so
     kill histories are not certifiable (DESIGN.md §15). *)
  let conf_stride = Obs.conformance_stride () in
  Obs.set_conformance_stride 0;
  Format.printf "service: overload chaos (bursty, scripted kills)@.";
  let plan =
    [
      { Faults.pt = "service.admit"; at = 200; act = Faults.Kill };
      { Faults.pt = "shard.grant"; at = 1; act = Faults.Kill };
      { Faults.pt = "service.epoch"; at = 8; act = Faults.Kill };
    ]
  in
  let cfg_svc =
    service_config ~workers ~requests ~backend:Svc.Sharded ~epoch_s:0.002
      (Workload.Arrival.Burst
         { rate = 500_000.0; burst = max 2 (requests / 10) })
  in
  let r = Svc.run ~plan ~watchdog:0.005 ~repeats:cfg.repeats cfg_svc in
  service_record ~impl:"sharded/chaos-burst" ~rate:500_000.0 ~workers cfg_svc
    r;
  let killed = r.Svc.measurement.Workload.Runner.killed in
  Printf.printf
    "  %d offered, %d admitted, %d shed, %d completed, %d failed — %d \
     killed, %d poisoned, deepest stage %s\n\n\
     %!"
    r.Svc.offered r.Svc.admitted r.Svc.shed r.Svc.completed r.Svc.failed
    killed
    r.Svc.measurement.Workload.Runner.poisoned
    (Ovl.stage_name r.Svc.max_stage);
  if killed < 1 then
    service_fail "chaos: the kill plan killed nobody (plan did not fire)";
  if r.Svc.completed > r.Svc.admitted then
    service_fail "chaos: more completions (%d) than admissions (%d)"
      r.Svc.completed r.Svc.admitted;
  if Svc.sojourn_p r 99.9 > service_p999_bound_ns then
    service_fail "chaos: sojourn p999 beyond the liveness bound";
  Obs.set_conformance_stride conf_stride

(* --------------------------- conformance ----------------------------- *)

(* Online-conformance panel (DESIGN.md §15):

   1. monitor throughput — synthetic completed-operation streams of
      growing length through one Lin.Stream monitor, certifying at the
      end: the events/s the offline [validate_trace --conformance] path
      and the fuzz mega mode lean on;
   2. sampling overhead — the service sweep's middle cell run twice,
      conformance recording off vs on at the given stride, identical
      otherwise. With [--assert-service] an overhead above 10% fails
      the run: the sampled monitor must be cheap enough to leave on. *)

let conformance_overhead_gate = 10.0

let conformance_bench cfg =
  Format.printf "== Conformance: monitor throughput + sampling overhead ==@.@.";
  (* Monitor throughput. A queue stream interleaving adds and removes
     with a running backlog, fed then finalized; every value distinct so
     the order-respecting certificates stay on their fast path. *)
  let throughput n =
    let m = Lin.Stream.create Lin.Stream.Fifo in
    let t0 = Unix.gettimeofday () in
    (* Alternating enqueue/FIFO-order dequeue with overlapping
       intervals: valid, every value distinct, backlog bounded. *)
    for i = 0 to n - 1 do
      let start = (i * 3) + 1 in
      let stop = start + 4 in
      let ev =
        if i mod 2 = 0 then Lin.Stream.Add (i / 2)
        else Lin.Stream.Remove (i / 2)
      in
      Lin.Stream.feed m ~start ~stop ev
    done;
    (match Lin.Stream.finalize m with
    | Lin.Stream.Accept -> ()
    | Lin.Stream.Reject { reason; _ } ->
        service_fail "conformance: synthetic stream rejected (%s)" reason);
    let dt = Unix.gettimeofday () -. t0 in
    let rate = if dt > 0.0 then float_of_int n /. dt else 0.0 in
    record ~bench:"conformance" ~impl:"stream-monitor" ~slack:0 ~domains:1
      [ ("events", float_of_int n); ("events_per_s", rate) ];
    Printf.printf "  stream monitor: %9d events in %6.3f s  (%.2e events/s)\n%!"
      n dt rate;
    rate
  in
  ignore (throughput 10_000 : float);
  ignore (throughput 100_000 : float);
  let rate = throughput 1_000_000 in
  (* The acceptance bar: a million-event trace must certify in well
     under a minute — at the measured rate, with generous slop. *)
  if rate < 1_000_000.0 /. 60.0 then
    service_fail "conformance: %.0f events/s cannot certify 1M events in 60s"
      rate;
  (* Sampling overhead on the service path: the sweep's saturating rate
     (arrival-paced cells hide per-op cost behind the generator's
     waits), conformance off vs on at the current stride (or 8 if
     recording was off), same seed, same arrivals. Min-of-k on both
     sides after a warmup: the gate compares best-case to best-case so
     a single noisy repeat on a shared runner does not trip it. *)
  let workers = min 4 (List.fold_left max 2 cfg.threads) in
  let requests = max 10_000 cfg.ops in
  let rates = service_rates cfg in
  let rate_top = List.nth rates (List.length rates - 1) in
  let cfg_svc =
    service_config ~workers ~requests ~backend:Svc.Sharded ~epoch_s:0.01
      (Workload.Arrival.Poisson { rate = rate_top })
  in
  let stride =
    match Obs.conformance_stride () with 0 -> 8 | n -> n
  in
  let was = Obs.conformance_stride () in
  let timed conf =
    Obs.set_conformance_stride (if conf then stride else 0);
    let r = Svc.run ~repeats:1 cfg_svc in
    Obs.set_conformance_stride 0;
    r.Svc.measurement.Workload.Runner.seconds
  in
  ignore (timed false : float);
  let reps = max 3 cfg.repeats in
  let min_of conf =
    let best = ref infinity in
    for _ = 1 to reps do
      best := Float.min !best (timed conf)
    done;
    !best
  in
  let base = min_of false in
  let conf = min_of true in
  Obs.set_conformance_stride was;
  let overhead =
    if base > 0.0 then (conf -. base) /. base *. 100.0 else 0.0
  in
  record ~bench:"conformance" ~impl:"service-overhead" ~slack:0
    ~domains:workers
    [
      ("stride", float_of_int stride);
      ("base_seconds", base);
      ("conformance_seconds", conf);
      ("overhead_pct", overhead);
    ];
  Printf.printf
    "  service overhead: stride 1/%d — %.3f s off, %.3f s on  (%+.1f%%)\n\n%!"
    stride base conf overhead;
  if overhead > conformance_overhead_gate then
    service_fail "conformance: sampling overhead %.1f%% beyond the %.0f%% gate"
      overhead conformance_overhead_gate

(* ------------------------------ main -------------------------------- *)

let parse_int_list s = List.map int_of_string (String.split_on_char ',' s)

let usage () =
  prerr_endline
    "usage: main.exe \
     [fig4|fig5|fig6|ablation|micro|cas|extra|shard|chaos|trace|service|conformance|all]... \
     [--quick|--full] [--ops N] [--repeats N] [--threads a,b,c] [--slacks \
     a,b,c] [--seed N] [--json PATH] [--obs] [--trace PATH] \
     [--conformance-stride N] [--assert-service]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse cfg cmds = function
    | [] -> (cfg, cmds)
    | "--quick" :: rest -> parse quick_config cmds rest
    | "--full" :: rest -> parse full_config cmds rest
    | "--ops" :: n :: rest -> parse { cfg with ops = int_of_string n } cmds rest
    | "--repeats" :: n :: rest ->
        parse { cfg with repeats = int_of_string n } cmds rest
    | "--threads" :: l :: rest ->
        parse { cfg with threads = parse_int_list l } cmds rest
    | "--slacks" :: l :: rest ->
        parse { cfg with slacks = parse_int_list l } cmds rest
    | "--seed" :: n :: rest ->
        chaos_seed := int_of_string n;
        parse cfg cmds rest
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse cfg cmds rest
    | "--obs" :: rest ->
        Obs.set_enabled true;
        parse cfg cmds rest
    | "--assert-service" :: rest ->
        assert_service := true;
        parse cfg cmds rest
    | "--trace" :: path :: rest ->
        Obs.set_enabled true;
        trace_path := Some path;
        parse cfg cmds rest
    | "--conformance-stride" :: n :: rest ->
        (* Same as FLDS_OBS_CONFORMANCE=1/N; implies --obs so the op
           events actually reach the rings. Conformance traces must be
           lossless (a dropped completion event reads as a violation or
           an uncertifiable trace), so rings created from here on get
           room for every event of a smoke-sized run. *)
        Obs.set_enabled true;
        Obs.set_conformance_stride (int_of_string n);
        Obs.Trace.set_capacity 65_536;
        parse cfg cmds rest
    | cmd :: rest
      when List.mem cmd
             [ "fig4"; "fig5"; "fig6"; "ablation"; "micro"; "cas"; "extra";
               "shard"; "chaos"; "trace"; "service"; "conformance"; "all" ]
      ->
        parse cfg (cmd :: cmds) rest
    | _ -> usage ()
  in
  (* With no arguments at all, run everything at smoke-run sizes so the
     default invocation finishes in minutes; pass explicit subcommands
     (and --ops/--repeats or --full) for publication-grade runs, as
     recorded under results/. *)
  let cfg, cmds =
    match args with
    | [] -> (quick_config, [ "all" ])
    | _ ->
        let cfg, cmds = parse default_config [] args in
        (cfg, if cmds = [] then [ "all" ] else List.rev cmds)
  in
  let run = function
    | "fig4" -> fig4 cfg
    | "fig5" -> fig5 cfg
    | "fig6" -> fig6 cfg
    | "ablation" -> ablation cfg
    | "micro" -> micro ()
    | "cas" -> cas_experiment cfg
    | "extra" -> extra cfg
    | "shard" -> shard_bench cfg
    | "chaos" -> chaos_bench cfg
    | "trace" -> trace_probe ()
    | "service" -> service_bench cfg
    | "conformance" -> conformance_bench cfg
    | "all" ->
        (* chaos is deliberately not part of [all]: its injected delays
           would contaminate the figure timings run in the same process. *)
        fig4 cfg;
        fig5 cfg;
        fig6 cfg;
        ablation cfg;
        cas_experiment cfg;
        extra cfg;
        micro ()
    | _ -> usage ()
  in
  List.iter run cmds;
  write_json ();
  write_trace ();
  if !service_failures > 0 then begin
    Printf.eprintf "service: %d gate(s) failed\n%!" !service_failures;
    exit 1
  end
