(** Observability: flight recorder + optimization telemetry.

    Three layers behind one runtime switch:

    - {!Trace} — per-domain lock-free ring-buffer flight recorder with a
      Chrome trace_event exporter (Perfetto / about:tracing);
    - {!Metrics} — striped counters and log-bucketed histograms for
      pendingness, force latency, splice batch size and elimination
      wait, with a snapshot/diff API;
    - the wrappers below — what instrumented hot paths actually call.
      Each is a no-op behind a {e single atomic load} when the switch is
      off, so instrumented code is indistinguishable from uninstrumented
      code in both time and allocation.

    The switch starts from the [FLDS_OBS] environment variable (unset,
    empty or ["0"] = off) and can be flipped at runtime. *)

module Histogram = Histogram
module Event = Event
module Trace = Trace
module Metrics = Metrics

val enabled : unit -> bool
val set_enabled : bool -> unit

val now_ns : unit -> int
(** Monotonic nanoseconds ({!Sync.Mono}), the subsystem's time base. *)

(** {2 Sampling}

    The future-lifecycle wrappers (the only per-operation recording
    sites) sample one in [sample_every] lifecycles per domain, weighting
    each recorded one by the stride so {!Metrics} totals remain unbiased
    estimates. Structural events (splices, elimination, combining,
    chaos, transfers) fire per batch and are always exact. Initial
    stride from [FLDS_OBS_SAMPLE] (default 8); stride 1 records
    everything — the exact pre-sampling semantics. *)

val sample_every : unit -> int
val set_sample_every : int -> unit
(** Set the lifecycle sampling stride (clamped to [>= 1]). Takes effect
    immediately on the calling domain, within one old stride elsewhere. *)

(** {2 Future lifecycle} *)

val future_created : unit -> int
(** Record a creation and return the birth stamp the future should carry
    ([0] when off or sampled out — terminal wrappers ignore untracked
    futures). *)

val future_fulfilled : born:int -> unit
val future_cancelled : born:int -> unit
val future_poisoned : born:int -> unit
val future_rejected : born:int -> unit
(** Record a terminal transition; the pendingness (now − [born]) goes to
    the trace and, for fulfilment, the pendingness histogram. No-ops
    when [born = 0]. *)

val force_begin : unit -> int
(** Stamp the start of a force ([0] when off or sampled out). Callers
    only stamp forces that find the future unresolved: the force
    histogram measures actual waiting/helping, and the common force of
    an already-fulfilled future costs no clock reads. *)

val future_forced : t0:int -> unit
(** Record a force completion with latency now − [t0]; no-op when
    [t0 = 0]. *)

(** {2 Optimization layers} *)

val splice : kind:int -> n:int -> unit
(** A single-CAS window splice (or combining pass) that amortized [n]
    ops; [kind] is an {!Event.kind_name} constant. No-op when [n = 0]. *)

val elim_hit : shard:int -> unit
val elim_miss : shard:int -> unit

val elim_wait_begin : unit -> int
val elim_wait_end : t0:int -> unit
(** Histogram the time a parked elimination offer waited. *)

val combiner_acquire : unit -> unit
val combiner_takeover : unit -> unit
val combiner_retire : unit -> unit
val backoff_exhausted : unit -> unit

(** {2 Chaos / recovery} *)

val worker_killed : worker:int -> unit
val worker_recovered : worker:int -> poisoned:int -> unit
val worker_stalled : worker:int -> unit

(** {2 Bucket transfers (sharded map)} *)

val shard_request : bucket:int -> int
(** Record a transfer request and return the stamp to pass to
    {!shard_ack} ([0] when off), so the transfer-latency histogram spans
    request → ack. *)

val shard_grant : bucket:int -> unit

val shard_ship : ts:int -> bucket:int -> n:int -> unit
(** [n] = ops in the sealed window being shipped. [ts] (from {!now_ns})
    must be read before the CAS that publishes the window, so the
    requester's ack — fired the moment the new state is visible — never
    timestamps before its ship in the merged trace. *)

val shard_ack : bucket:int -> t0:int -> unit
(** Transfer completed; latency now − [t0] goes to the transfer
    histogram (skipped when [t0 = 0]). *)

val shard_recover : bucket:int -> applied:int -> unit
(** An expired bucket was usurped; [applied] = ops the recoverer applied
    out of a window caught in flight (0 when none was in flight). *)

val shard_degraded : bucket:int -> unit
(** A pending find answered read-only against the local segment while
    its bucket was owned elsewhere or in flight. *)

(** {2 Service layer (open-loop workload)} *)

val service_admit : unit -> unit
(** An offered request passed admission control. Unsampled: shed-rate
    arithmetic must balance exactly. *)

val service_shed : stage:int -> unit
(** An offered request was refused; [stage] is the overload stage the
    controller was in ({!Workload.Overload} encoding). *)

val service_stage : from:int -> to_:int -> unit
(** The admission controller moved between overload stages; escalations
    ([to_ > from]) bump the degrade counter. *)

val service_complete : sojourn_ns:int -> unit
(** An admitted request's result was forced; [sojourn_ns] is measured
    from the request's {e intended} arrival time, so queueing delay the
    generator could not issue through is charged to the system
    (coordinated-omission-safe). Negative values are dropped. *)

(** {2 Conformance events (online FL-linearizability monitoring)}

    Completed-operation events feeding {!Lin.Stream} — offline via
    [validate_trace --conformance], or sampled online. Each event's
    trace payload is [a = (value lsl 6) lor obj] (obj = structure id,
    0..63) and [b] = duration in ns, so the operation's interval is
    [ts - b, ts].

    Sampling is by {e value residue}: an op is recorded iff
    [value mod stride = 0], so a matched add/remove pair is kept or
    dropped {e together} — the property the order-respecting
    certificates need. Empty removals constrain every value and are
    only emitted at stride 1 (complete trace). Stride comes from
    [FLDS_OBS_CONFORMANCE] (["N"] or ["1/N"]; unset, empty or ["0"] =
    off). *)

val conformance_stride : unit -> int
(** Current stride; [0] = conformance recording off. *)

val set_conformance_stride : int -> unit
(** [0] turns conformance recording off; [n >= 1] records values with
    residue [0 mod n]. *)

val op_begin : unit -> int
(** Stamp an operation's start ([0] when obs or conformance is off —
    the completion wrappers below are single-branch no-ops then). *)

val op_enq : value:int -> obj:int -> t0:int -> unit
val op_deq : value:int -> obj:int -> t0:int -> unit
val op_push : value:int -> obj:int -> t0:int -> unit
val op_pop : value:int -> obj:int -> t0:int -> unit
(** A value-carrying structure operation completed; no-ops when
    [t0 = 0] or the value misses the sampling residue. *)

val op_deq_empty : obj:int -> t0:int -> unit
val op_pop_empty : obj:int -> t0:int -> unit
(** An empty removal completed. Emitted only at stride 1 — a sampled
    trace cannot certify emptiness. *)
