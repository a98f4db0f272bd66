(* The event taxonomy of the flight recorder. Tags and splice kinds are
   small ints so the record path stores them into preallocated int arrays
   without boxing; the string names exist only for the post-run exporter
   and for tests. Keep [name]/[kind_name] in sync with the tag lists —
   DESIGN.md §10 documents the taxonomy. *)

(* Operation lifecycle. [a] carries the pending/force latency in ns. *)
let future_created = 0
let future_fulfilled = 1
let future_forced = 2
let future_cancelled = 3
let future_poisoned = 4

(* Optimization layers. window_splice: [a] = batch size, [b] = kind.
   elim_hit/elim_miss: [a] = shard index. *)
let window_splice = 5
let elim_hit = 6
let elim_miss = 7
let combiner_acquire = 8
let combiner_takeover = 9
let combiner_retire = 10
let backoff_exhausted = 11

(* Chaos / recovery (Workload.Runner). [a] = worker index;
   worker_recovered's [b] = futures poisoned by the abandon hook. *)
let worker_killed = 12
let worker_recovered = 13
let worker_stalled = 14

(* Sharded-map bucket transfers (Fl.Shard_map). [a] = bucket id.
   shard_ship's [b] = shipped window size; shard_ack's [b] = transfer
   latency (request -> ack) in ns; shard_recover's [b] = ops applied
   out of the window caught in flight. *)
let shard_request = 15
let shard_grant = 16
let shard_ship = 17
let shard_ack = 18
let shard_recover = 19

(* Service layer (Workload.Service / Workload.Overload). future_rejected
   is the fourth terminal future fate: admission control refused the op.
   service_shed's [a] = overload stage at shed time; service_stage's
   [a]/[b] = old/new stage; service_complete's [a] = request sojourn
   (intended arrival -> result forced) in ns — the coordinated-omission-
   safe latency. shard_degraded's [a] = bucket id answering a read-only
   find while the bucket is in flight. *)
let future_rejected = 20
let service_admit = 21
let service_shed = 22
let service_stage = 23
let service_complete = 24
let shard_degraded = 25

(* Completed-operation events for the online conformance monitor
   (Lin.Stream). One event per sampled completed structure operation:
   [a] = (value lsl 6) lor obj (obj = structure id, 0..63), [b] = the
   operation's duration in ns, so the op's interval is [ts - b, ts].
   Empty removals carry no value ([a] = obj) and are only meaningful at
   sampling stride 1 — an empty verdict constrains *every* value, so a
   sampled subset cannot certify it. *)
let op_enq = 26
let op_deq = 27
let op_deq_empty = 28
let op_push = 29
let op_pop = 30
let op_pop_empty = 31

let tag_count = 32

let name = function
  | 0 -> "future.created"
  | 1 -> "future.fulfilled"
  | 2 -> "future.forced"
  | 3 -> "future.cancelled"
  | 4 -> "future.poisoned"
  | 5 -> "splice"
  | 6 -> "elim.hit"
  | 7 -> "elim.miss"
  | 8 -> "combiner.acquire"
  | 9 -> "combiner.takeover"
  | 10 -> "combiner.retire"
  | 11 -> "backoff.exhausted"
  | 12 -> "worker.killed"
  | 13 -> "worker.recovered"
  | 14 -> "worker.stalled"
  | 15 -> "shard.request"
  | 16 -> "shard.grant"
  | 17 -> "shard.ship"
  | 18 -> "shard.ack"
  | 19 -> "shard.recover"
  | 20 -> "future.rejected"
  | 21 -> "service.admit"
  | 22 -> "service.shed"
  | 23 -> "service.stage"
  | 24 -> "service.complete"
  | 25 -> "shard.degraded"
  | 26 -> "op.enq"
  | 27 -> "op.deq"
  | 28 -> "op.deq.empty"
  | 29 -> "op.push"
  | 30 -> "op.pop"
  | 31 -> "op.pop.empty"
  | t -> "unknown." ^ string_of_int t

let is_terminal t =
  t = future_fulfilled || t = future_cancelled || t = future_poisoned
  || t = future_rejected

(* Splice kinds: which pending window a batch was spliced out of. *)
let k_weak_stack_push = 0
let k_weak_stack_pop = 1
let k_weak_queue_enq = 2
let k_weak_queue_deq = 3
let k_medium_stack_push = 4
let k_medium_stack_pop = 5
let k_medium_queue_enq = 6
let k_medium_queue_deq = 7
let k_weak_list = 8
let k_slack_drain = 9
let k_fc_pass = 10
let k_shard = 11
let kind_count = 12

let kind_name = function
  | 0 -> "weak-stack-push"
  | 1 -> "weak-stack-pop"
  | 2 -> "weak-queue-enq"
  | 3 -> "weak-queue-deq"
  | 4 -> "medium-stack-push"
  | 5 -> "medium-stack-pop"
  | 6 -> "medium-queue-enq"
  | 7 -> "medium-queue-deq"
  | 8 -> "weak-list"
  | 9 -> "slack-drain"
  | 10 -> "fc-pass"
  | 11 -> "shard-window"
  | k -> "kind-" ^ string_of_int k
