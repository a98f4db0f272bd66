(* Optimization telemetry: striped counters (Sync.Cas_counter — one
   padded stripe per domain hash, so bumping a counter never bounces a
   cache line between domains) plus log-bucketed histograms for the four
   quantities that explain the paper's optimizations:

   - pendingness: future creation -> fulfilment, the window the paper's
     whole design keeps open;
   - force latency: force -> return, what the caller actually waits;
   - splice batch size: ops amortized by each single-CAS window splice
     (and each flat-combining pass);
   - elimination wait: how long a parked offer sits in its shard.

   One process-global instance: the instrumentation points live in
   library code that has no handle to thread a metrics object through.
   Scope a measurement by diffing two snapshots. *)

module C = Sync.Cas_counter

type t = {
  futures_created : C.t;
  futures_fulfilled : C.t;
  futures_forced : C.t;
  futures_cancelled : C.t;
  futures_poisoned : C.t;
  futures_rejected : C.t;
  splices : C.t;
  splice_ops : C.t;
  (* Per-splice-kind counters, indexed by Event.k_* (length
     Event.kind_count), so a report can attribute batch sizes to the
     mechanism that produced them — slack drains vs combining passes —
     which the aggregate splice histogram cannot do. *)
  splice_kind_splices : C.t array;
  splice_kind_ops : C.t array;
  elim_hits : C.t;
  elim_misses : C.t;
  combiner_acquires : C.t;
  combiner_takeovers : C.t;
  combiner_retires : C.t;
  backoff_exhausted : C.t;
  workers_killed : C.t;
  workers_recovered : C.t;
  workers_stalled : C.t;
  shard_requests : C.t;
  shard_grants : C.t;
  shard_ships : C.t;
  shard_acks : C.t;
  shard_recovers : C.t;
  shard_degraded_finds : C.t;
  service_admitted : C.t;
  service_shed : C.t;
  service_degrades : C.t;
  pendingness_ns : Histogram.t;
  force_ns : Histogram.t;
  splice_batch : Histogram.t;
  elim_wait_ns : Histogram.t;
  transfer_ns : Histogram.t;
  service_ns : Histogram.t;
}

let create () =
  {
    futures_created = C.create ();
    futures_fulfilled = C.create ();
    futures_forced = C.create ();
    futures_cancelled = C.create ();
    futures_poisoned = C.create ();
    futures_rejected = C.create ();
    splices = C.create ();
    splice_ops = C.create ();
    splice_kind_splices = Array.init Event.kind_count (fun _ -> C.create ());
    splice_kind_ops = Array.init Event.kind_count (fun _ -> C.create ());
    elim_hits = C.create ();
    elim_misses = C.create ();
    combiner_acquires = C.create ();
    combiner_takeovers = C.create ();
    combiner_retires = C.create ();
    backoff_exhausted = C.create ();
    workers_killed = C.create ();
    workers_recovered = C.create ();
    workers_stalled = C.create ();
    shard_requests = C.create ();
    shard_grants = C.create ();
    shard_ships = C.create ();
    shard_acks = C.create ();
    shard_recovers = C.create ();
    shard_degraded_finds = C.create ();
    service_admitted = C.create ();
    service_shed = C.create ();
    service_degrades = C.create ();
    pendingness_ns = Histogram.create ();
    force_ns = Histogram.create ();
    splice_batch = Histogram.create ();
    elim_wait_ns = Histogram.create ();
    transfer_ns = Histogram.create ();
    service_ns = Histogram.create ();
  }

let global = create ()

let reset () =
  let g = global in
  List.iter C.reset
    [
      g.futures_created; g.futures_fulfilled; g.futures_forced;
      g.futures_cancelled; g.futures_poisoned; g.futures_rejected;
      g.splices; g.splice_ops;
      g.elim_hits; g.elim_misses; g.combiner_acquires; g.combiner_takeovers;
      g.combiner_retires; g.backoff_exhausted; g.workers_killed;
      g.workers_recovered; g.workers_stalled; g.shard_requests;
      g.shard_grants; g.shard_ships; g.shard_acks; g.shard_recovers;
      g.shard_degraded_finds; g.service_admitted; g.service_shed;
      g.service_degrades;
    ];
  Array.iter C.reset g.splice_kind_splices;
  Array.iter C.reset g.splice_kind_ops;
  List.iter Histogram.reset
    [ g.pendingness_ns; g.force_ns; g.splice_batch; g.elim_wait_ns;
      g.transfer_ns; g.service_ns ]

(* ------------------------- recording hooks -------------------------- *)
(* Called by the Obs wrappers with the switch already checked. *)

(* The future-lifecycle hooks carry a sampling weight [w] (the Obs
   sampler's stride): one recorded lifecycle stands for [w] real ones,
   so counters gain [w] and histograms use the weighted record. Every
   other hook is unsampled ([w] would always be 1). *)

let on_future_created w = C.add global.futures_created w

let on_future_fulfilled ~w d =
  C.add global.futures_fulfilled w;
  Histogram.record_n global.pendingness_ns d ~w

let on_future_forced ~w d =
  C.add global.futures_forced w;
  Histogram.record_n global.force_ns d ~w

let on_future_cancelled w = C.add global.futures_cancelled w
let on_future_poisoned w = C.add global.futures_poisoned w
let on_future_rejected w = C.add global.futures_rejected w

let on_splice ~kind n =
  C.incr global.splices;
  C.add global.splice_ops n;
  let k = if kind < 0 || kind >= Event.kind_count then 0 else kind in
  C.incr global.splice_kind_splices.(k);
  C.add global.splice_kind_ops.(k) n;
  Histogram.record global.splice_batch n

let on_elim_hit () = C.incr global.elim_hits
let on_elim_miss () = C.incr global.elim_misses
let on_elim_wait d = Histogram.record global.elim_wait_ns d
let on_combiner_acquire () = C.incr global.combiner_acquires
let on_combiner_takeover () = C.incr global.combiner_takeovers
let on_combiner_retire () = C.incr global.combiner_retires
let on_backoff_exhausted () = C.incr global.backoff_exhausted
let on_worker_killed () = C.incr global.workers_killed
let on_worker_recovered () = C.incr global.workers_recovered
let on_worker_stalled () = C.incr global.workers_stalled
let on_shard_request () = C.incr global.shard_requests
let on_shard_grant () = C.incr global.shard_grants
let on_shard_ship () = C.incr global.shard_ships

let on_shard_ack d =
  C.incr global.shard_acks;
  if d > 0 then Histogram.record global.transfer_ns d

let on_shard_recover () = C.incr global.shard_recovers
let on_shard_degraded () = C.incr global.shard_degraded_finds
let on_service_admit () = C.incr global.service_admitted
let on_service_shed () = C.incr global.service_shed
let on_service_degrade () = C.incr global.service_degrades

(* Request sojourn: intended arrival -> result forced, ns. Unsampled —
   the service layer records one per admitted request it completes, and
   the tail (p999) is exactly what sampling would erase. *)
let on_service_complete d = Histogram.record global.service_ns d

(* ---------------------------- snapshots ------------------------------ *)

type snapshot = {
  futures_created : int;
  futures_fulfilled : int;
  futures_forced : int;
  futures_cancelled : int;
  futures_poisoned : int;
  futures_rejected : int;
  splices : int;
  splice_ops : int;
  splice_kind_splices : int array;
  splice_kind_ops : int array;
  elim_hits : int;
  elim_misses : int;
  combiner_acquires : int;
  combiner_takeovers : int;
  combiner_retires : int;
  backoff_exhausted : int;
  workers_killed : int;
  workers_recovered : int;
  workers_stalled : int;
  shard_requests : int;
  shard_grants : int;
  shard_ships : int;
  shard_acks : int;
  shard_recovers : int;
  shard_degraded_finds : int;
  service_admitted : int;
  service_shed : int;
  service_degrades : int;
  pendingness_ns : Histogram.s;
  force_ns : Histogram.s;
  splice_batch : Histogram.s;
  elim_wait_ns : Histogram.s;
  transfer_ns : Histogram.s;
  service_ns : Histogram.s;
}

let snapshot () =
  let g = global in
  {
    futures_created = C.total g.futures_created;
    futures_fulfilled = C.total g.futures_fulfilled;
    futures_forced = C.total g.futures_forced;
    futures_cancelled = C.total g.futures_cancelled;
    futures_poisoned = C.total g.futures_poisoned;
    futures_rejected = C.total g.futures_rejected;
    splices = C.total g.splices;
    splice_ops = C.total g.splice_ops;
    splice_kind_splices = Array.map C.total g.splice_kind_splices;
    splice_kind_ops = Array.map C.total g.splice_kind_ops;
    elim_hits = C.total g.elim_hits;
    elim_misses = C.total g.elim_misses;
    combiner_acquires = C.total g.combiner_acquires;
    combiner_takeovers = C.total g.combiner_takeovers;
    combiner_retires = C.total g.combiner_retires;
    backoff_exhausted = C.total g.backoff_exhausted;
    workers_killed = C.total g.workers_killed;
    workers_recovered = C.total g.workers_recovered;
    workers_stalled = C.total g.workers_stalled;
    shard_requests = C.total g.shard_requests;
    shard_grants = C.total g.shard_grants;
    shard_ships = C.total g.shard_ships;
    shard_acks = C.total g.shard_acks;
    shard_recovers = C.total g.shard_recovers;
    shard_degraded_finds = C.total g.shard_degraded_finds;
    service_admitted = C.total g.service_admitted;
    service_shed = C.total g.service_shed;
    service_degrades = C.total g.service_degrades;
    pendingness_ns = Histogram.snapshot g.pendingness_ns;
    force_ns = Histogram.snapshot g.force_ns;
    splice_batch = Histogram.snapshot g.splice_batch;
    elim_wait_ns = Histogram.snapshot g.elim_wait_ns;
    transfer_ns = Histogram.snapshot g.transfer_ns;
    service_ns = Histogram.snapshot g.service_ns;
  }

let diff (later : snapshot) (earlier : snapshot) =
  {
    futures_created = later.futures_created - earlier.futures_created;
    futures_fulfilled = later.futures_fulfilled - earlier.futures_fulfilled;
    futures_forced = later.futures_forced - earlier.futures_forced;
    futures_cancelled = later.futures_cancelled - earlier.futures_cancelled;
    futures_poisoned = later.futures_poisoned - earlier.futures_poisoned;
    futures_rejected = later.futures_rejected - earlier.futures_rejected;
    splices = later.splices - earlier.splices;
    splice_ops = later.splice_ops - earlier.splice_ops;
    splice_kind_splices =
      Array.init Event.kind_count (fun i ->
          later.splice_kind_splices.(i) - earlier.splice_kind_splices.(i));
    splice_kind_ops =
      Array.init Event.kind_count (fun i ->
          later.splice_kind_ops.(i) - earlier.splice_kind_ops.(i));
    elim_hits = later.elim_hits - earlier.elim_hits;
    elim_misses = later.elim_misses - earlier.elim_misses;
    combiner_acquires = later.combiner_acquires - earlier.combiner_acquires;
    combiner_takeovers = later.combiner_takeovers - earlier.combiner_takeovers;
    combiner_retires = later.combiner_retires - earlier.combiner_retires;
    backoff_exhausted = later.backoff_exhausted - earlier.backoff_exhausted;
    workers_killed = later.workers_killed - earlier.workers_killed;
    workers_recovered = later.workers_recovered - earlier.workers_recovered;
    workers_stalled = later.workers_stalled - earlier.workers_stalled;
    shard_requests = later.shard_requests - earlier.shard_requests;
    shard_grants = later.shard_grants - earlier.shard_grants;
    shard_ships = later.shard_ships - earlier.shard_ships;
    shard_acks = later.shard_acks - earlier.shard_acks;
    shard_recovers = later.shard_recovers - earlier.shard_recovers;
    shard_degraded_finds =
      later.shard_degraded_finds - earlier.shard_degraded_finds;
    service_admitted = later.service_admitted - earlier.service_admitted;
    service_shed = later.service_shed - earlier.service_shed;
    service_degrades = later.service_degrades - earlier.service_degrades;
    pendingness_ns = Histogram.diff later.pendingness_ns earlier.pendingness_ns;
    force_ns = Histogram.diff later.force_ns earlier.force_ns;
    splice_batch = Histogram.diff later.splice_batch earlier.splice_batch;
    elim_wait_ns = Histogram.diff later.elim_wait_ns earlier.elim_wait_ns;
    transfer_ns = Histogram.diff later.transfer_ns earlier.transfer_ns;
    service_ns = Histogram.diff later.service_ns earlier.service_ns;
  }

(* --------------------------- derived views --------------------------- *)

let pendingness_p50 s = Histogram.percentile_value s.pendingness_ns 50.0
let pendingness_p99 s = Histogram.percentile_value s.pendingness_ns 99.0
let pendingness_p999 s = Histogram.percentile_value s.pendingness_ns 99.9
let force_p50 s = Histogram.percentile_value s.force_ns 50.0
let force_p99 s = Histogram.percentile_value s.force_ns 99.0
let force_p999 s = Histogram.percentile_value s.force_ns 99.9
let mean_splice_batch s = Histogram.mean_value s.splice_batch
let elim_wait_p99 s = Histogram.percentile_value s.elim_wait_ns 99.0
let elim_wait_p999 s = Histogram.percentile_value s.elim_wait_ns 99.9

let transfer_p50 s = Histogram.percentile_value s.transfer_ns 50.0
let transfer_p99 s = Histogram.percentile_value s.transfer_ns 99.0
let transfer_p999 s = Histogram.percentile_value s.transfer_ns 99.9

let service_p50 s = Histogram.percentile_value s.service_ns 50.0
let service_p99 s = Histogram.percentile_value s.service_ns 99.0
let service_p999 s = Histogram.percentile_value s.service_ns 99.9

let elim_hit_rate s =
  let attempts = s.elim_hits + s.elim_misses in
  if attempts = 0 then 0.0
  else float_of_int s.elim_hits /. float_of_int attempts
