(** Optimization telemetry: striped counters plus log-bucketed histograms
    for pendingness (create→fulfil), force latency, splice batch size and
    elimination wait. One process-global instance; scope a measurement by
    diffing two {!snapshot}s. The [on_*] hooks are called by the {!Obs}
    wrappers with the runtime switch already checked. *)

val reset : unit -> unit

(** {2 Recording hooks (switch pre-checked by [Obs])} *)

val on_future_created : int -> unit
(** Argument: sampling weight — how many real lifecycles this recorded
    one stands for (the {!Obs} sampler's stride; [1] = unsampled). *)

val on_future_fulfilled : w:int -> int -> unit
(** Argument: pendingness (create→fulfil) in ns, weighted by [w]. *)

val on_future_forced : w:int -> int -> unit
(** Argument: force→return latency in ns, weighted by [w]. *)

val on_future_cancelled : int -> unit
val on_future_poisoned : int -> unit
val on_future_rejected : int -> unit
(** Argument: sampling weight. *)

val on_splice : kind:int -> int -> unit
(** Argument: ops amortized by this single-CAS splice (or combining
    pass); [kind] an {!Event.kind_name} constant attributing the batch
    to the layer that produced it. *)

val on_elim_hit : unit -> unit
val on_elim_miss : unit -> unit
val on_elim_wait : int -> unit
(** Argument: time a parked offer waited in its shard, ns. *)

val on_combiner_acquire : unit -> unit
val on_combiner_takeover : unit -> unit
val on_combiner_retire : unit -> unit
val on_backoff_exhausted : unit -> unit
val on_worker_killed : unit -> unit
val on_worker_recovered : unit -> unit
val on_worker_stalled : unit -> unit
val on_shard_request : unit -> unit
val on_shard_grant : unit -> unit
val on_shard_ship : unit -> unit

val on_shard_ack : int -> unit
(** Argument: transfer latency (request → ack) in ns; [0] = untracked
    (counted, not histogrammed). *)

val on_shard_recover : unit -> unit
val on_shard_degraded : unit -> unit
(** A read-only find answered while its bucket was in flight. *)

val on_service_admit : unit -> unit
val on_service_shed : unit -> unit

val on_service_degrade : unit -> unit
(** An overload-stage escalation (admission controller moved one stage
    toward degraded service). *)

val on_service_complete : int -> unit
(** Argument: request sojourn (intended arrival → result forced) in ns.
    Unsampled — the tail is the point. *)

(** {2 Snapshots} *)

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

val snapshot : unit -> snapshot
val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier]. *)

(** {2 Derived views (on a snapshot or diff)} *)

val pendingness_p50 : snapshot -> int
val pendingness_p99 : snapshot -> int
val pendingness_p999 : snapshot -> int
val force_p50 : snapshot -> int
val force_p99 : snapshot -> int
val force_p999 : snapshot -> int
val mean_splice_batch : snapshot -> float
val elim_wait_p99 : snapshot -> int
val elim_wait_p999 : snapshot -> int

val transfer_p50 : snapshot -> int
val transfer_p99 : snapshot -> int
val transfer_p999 : snapshot -> int
(** Bucket-transfer latency (request → ack), ns. *)

val service_p50 : snapshot -> int
val service_p99 : snapshot -> int
val service_p999 : snapshot -> int
(** Request sojourn (intended arrival → result forced), ns — the
    coordinated-omission-safe service latency. *)

val elim_hit_rate : snapshot -> float
(** hits / (hits + misses); [0.] with no attempts. *)
