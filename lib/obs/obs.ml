(* Root of the observability subsystem. The wrappers below are the only
   functions instrumented hot paths call: each is a no-op behind a single
   atomic load when the subsystem is off (env FLDS_OBS, or
   [set_enabled]), and when on records both a flight-recorder event
   (Trace) and the matching counters/histograms (Metrics). *)

module Histogram = Histogram
module Event = Event
module Trace = Trace
module Metrics = Metrics

let enabled = Switch.enabled
let set_enabled = Switch.set_enabled
let now_ns = Trace.now_ns

(* ------------------------------ sampling ------------------------------ *)

(* Per-domain countdown sampler over the future-lifecycle wrappers — the
   only wrappers that fire once per operation and so dominate recording
   cost. One in [sample_every] created futures (and one in
   [sample_every] slow-path forces) is recorded; its counter and
   histogram contributions carry the stride as a weight, keeping every
   Metrics total an unbiased estimate. Unsampled futures reuse the
   born = 0 "untracked" convention, so their terminal wrappers cost a
   single branch. Structural events — splices, elimination, combining,
   chaos, transfers — fire once per batch, not per op, and stay exact.
   Stride 1 restores the exact PR-4 semantics. *)

let sample_stride =
  let v =
    match Sys.getenv_opt "FLDS_OBS_SAMPLE" with
    | None | Some "" -> 8
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n when n >= 1 -> n
        | _ -> 8)
  in
  Atomic.make v

let sample_every () = Atomic.get sample_stride

type sampler = { mutable countdown : int }

(* countdown = 1 so a fresh domain's first lifecycle is sampled — short
   single-domain measurement windows see data immediately. *)
let sampler_key = Domain.DLS.new_key (fun () -> { countdown = 1 })

(* Weight this event carries: the stride on sampled ticks, 0 otherwise. *)
let sample () =
  let s = Domain.DLS.get sampler_key in
  let c = s.countdown - 1 in
  if c > 0 then begin
    s.countdown <- c;
    0
  end
  else begin
    let stride = Atomic.get sample_stride in
    s.countdown <- stride;
    stride
  end

let set_sample_every n =
  Atomic.set sample_stride (if n < 1 then 1 else n);
  (* Re-arm the calling domain so the new stride takes effect on its
     next lifecycle (other domains converge within one old stride). *)
  (Domain.DLS.get sampler_key).countdown <- 1

(* ------------------------- future lifecycle -------------------------- *)

(* [future_created] returns the birth stamp the future carries (0 when
   off or sampled out — the terminal wrappers treat 0 as "untracked", so
   a future created while obs was off never reports a garbage latency). *)
let future_created () =
  if Switch.enabled () then begin
    let w = sample () in
    if w = 0 then 0
    else begin
      let ts = Trace.now_ns () in
      Trace.emit_at ~ts Event.future_created 0 0;
      Metrics.on_future_created w;
      ts
    end
  end
  else 0

let future_fulfilled ~born =
  if born <> 0 && Switch.enabled () then begin
    let ts = Trace.now_ns () in
    let d = ts - born in
    Trace.emit_at ~ts Event.future_fulfilled d 0;
    Metrics.on_future_fulfilled ~w:(Atomic.get sample_stride) d
  end

let future_cancelled ~born =
  if born <> 0 && Switch.enabled () then begin
    let ts = Trace.now_ns () in
    Trace.emit_at ~ts Event.future_cancelled (ts - born) 0;
    Metrics.on_future_cancelled (Atomic.get sample_stride)
  end

let future_poisoned ~born =
  if born <> 0 && Switch.enabled () then begin
    let ts = Trace.now_ns () in
    Trace.emit_at ~ts Event.future_poisoned (ts - born) 0;
    Metrics.on_future_poisoned (Atomic.get sample_stride)
  end

let future_rejected ~born =
  if born <> 0 && Switch.enabled () then begin
    let ts = Trace.now_ns () in
    Trace.emit_at ~ts Event.future_rejected (ts - born) 0;
    Metrics.on_future_rejected (Atomic.get sample_stride)
  end

let force_begin () =
  if Switch.enabled () && sample () <> 0 then Trace.now_ns () else 0

let future_forced ~t0 =
  if t0 <> 0 && Switch.enabled () then begin
    let ts = Trace.now_ns () in
    let d = ts - t0 in
    Trace.emit_at ~ts Event.future_forced d 0;
    Metrics.on_future_forced ~w:(Atomic.get sample_stride) d
  end

(* --------------------------- window splices -------------------------- *)

let splice ~kind ~n =
  if n > 0 && Switch.enabled () then begin
    Trace.emit Event.window_splice n kind;
    Metrics.on_splice ~kind n
  end

(* ---------------------------- elimination ---------------------------- *)

let elim_hit ~shard =
  if Switch.enabled () then begin
    Trace.emit Event.elim_hit shard 0;
    Metrics.on_elim_hit ()
  end

let elim_miss ~shard =
  if Switch.enabled () then begin
    Trace.emit Event.elim_miss shard 0;
    Metrics.on_elim_miss ()
  end

(* Parked-offer waits are rare (one per park, not per op): unsampled. *)
let elim_wait_begin () = if Switch.enabled () then Trace.now_ns () else 0

let elim_wait_end ~t0 =
  if t0 <> 0 && Switch.enabled () then
    Metrics.on_elim_wait (Trace.now_ns () - t0)

(* ----------------------------- combining ----------------------------- *)

let combiner_acquire () =
  if Switch.enabled () then begin
    Trace.emit Event.combiner_acquire 0 0;
    Metrics.on_combiner_acquire ()
  end

let combiner_takeover () =
  if Switch.enabled () then begin
    Trace.emit Event.combiner_takeover 0 0;
    Metrics.on_combiner_takeover ()
  end

let combiner_retire () =
  if Switch.enabled () then begin
    Trace.emit Event.combiner_retire 0 0;
    Metrics.on_combiner_retire ()
  end

let backoff_exhausted () =
  if Switch.enabled () then begin
    Trace.emit Event.backoff_exhausted 0 0;
    Metrics.on_backoff_exhausted ()
  end

(* -------------------------- chaos / recovery ------------------------- *)

let worker_killed ~worker =
  if Switch.enabled () then begin
    Trace.emit Event.worker_killed worker 0;
    Metrics.on_worker_killed ()
  end

let worker_recovered ~worker ~poisoned =
  if Switch.enabled () then begin
    Trace.emit Event.worker_recovered worker poisoned;
    Metrics.on_worker_recovered ()
  end

let worker_stalled ~worker =
  if Switch.enabled () then begin
    Trace.emit Event.worker_stalled worker 0;
    Metrics.on_worker_stalled ()
  end

(* ------------------------- bucket transfers -------------------------- *)

(* [shard_request] returns the stamp the requester carries to [shard_ack]
   so the transfer-latency histogram spans the whole protocol (0 when
   off or when the transfer completed via a path that never stamped). *)
let shard_request ~bucket =
  if Switch.enabled () then begin
    let ts = Trace.now_ns () in
    Trace.emit_at ~ts Event.shard_request bucket 0;
    Metrics.on_shard_request ();
    ts
  end
  else 0

let shard_grant ~bucket =
  if Switch.enabled () then begin
    Trace.emit Event.shard_grant bucket 0;
    Metrics.on_shard_grant ()
  end

(* [~ts] lets the granter stamp the ship {e before} the CAS that
   publishes the shipped window: the requester's ack fires the instant
   the state is visible, and an ack timestamped before its ship would
   read as a phantom ack in the exported trace. *)
let shard_ship ~ts ~bucket ~n =
  if Switch.enabled () then begin
    Trace.emit_at ~ts Event.shard_ship bucket n;
    Metrics.on_shard_ship ()
  end

let shard_ack ~bucket ~t0 =
  if Switch.enabled () then begin
    let ts = Trace.now_ns () in
    let d = if t0 = 0 then 0 else ts - t0 in
    Trace.emit_at ~ts Event.shard_ack bucket d;
    Metrics.on_shard_ack d
  end

let shard_recover ~bucket ~applied =
  if Switch.enabled () then begin
    Trace.emit Event.shard_recover bucket applied;
    Metrics.on_shard_recover ()
  end

let shard_degraded ~bucket =
  if Switch.enabled () then begin
    Trace.emit Event.shard_degraded bucket 0;
    Metrics.on_shard_degraded ()
  end

(* --------------------------- service layer --------------------------- *)

(* Admission decisions fire once per offered request; they are counted
   exactly (no sampling) because the shed-rate arithmetic — sheds over
   offered — must balance against the service layer's own bookkeeping. *)
let service_admit () =
  if Switch.enabled () then begin
    Trace.emit Event.service_admit 0 0;
    Metrics.on_service_admit ()
  end

let service_shed ~stage =
  if Switch.enabled () then begin
    Trace.emit Event.service_shed stage 0;
    Metrics.on_service_shed ()
  end

let service_stage ~from ~to_ =
  if Switch.enabled () then begin
    Trace.emit Event.service_stage from to_;
    if to_ > from then Metrics.on_service_degrade ()
  end

let service_complete ~sojourn_ns =
  if sojourn_ns >= 0 && Switch.enabled () then begin
    Trace.emit Event.service_complete sojourn_ns 0;
    Metrics.on_service_complete sojourn_ns
  end

(* ------------------------- conformance events ------------------------ *)

(* Completed-operation events feeding the online FL-conformance monitor
   (Lin.Stream, validate_trace --conformance). Sampling is by *value
   residue* — record the op iff value mod stride = 0 — not by the
   countdown sampler: the certificates need matched add/remove pairs to
   survive sampling together, and two ops carrying the same value agree
   on the residue no matter which domain records them. Empty removals
   constrain every value, so they are emitted only at stride 1, where
   the trace is complete. Stride 0 = conformance off (the default). *)

let conformance =
  let v =
    match Sys.getenv_opt "FLDS_OBS_CONFORMANCE" with
    | None | Some "" | Some "0" -> 0
    | Some s -> (
        (* "N" or "1/N", both meaning: record values with residue 0 mod
           N. *)
        let s = String.trim s in
        let s =
          if String.length s > 2 && String.sub s 0 2 = "1/" then
            String.sub s 2 (String.length s - 2)
          else s
        in
        match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 0)
  in
  Atomic.make v

let conformance_stride () = Atomic.get conformance
let set_conformance_stride n = Atomic.set conformance (if n < 0 then 0 else n)

(* Stamp an operation's start; 0 means "don't record this op" and makes
   every completion wrapper below a single-branch no-op. *)
let op_begin () =
  if Switch.enabled () && Atomic.get conformance > 0 then Trace.now_ns ()
  else 0

let op_completed tag ~value ~obj ~t0 =
  if t0 <> 0 && Switch.enabled () then begin
    let stride = Atomic.get conformance in
    if stride > 0 && value mod stride = 0 then begin
      let ts = Trace.now_ns () in
      Trace.emit_at ~ts tag ((value lsl 6) lor (obj land 63)) (ts - t0)
    end
  end

let op_completed_empty tag ~obj ~t0 =
  if t0 <> 0 && Switch.enabled () && Atomic.get conformance = 1 then begin
    let ts = Trace.now_ns () in
    Trace.emit_at ~ts tag (obj land 63) (ts - t0)
  end

let op_enq ~value ~obj ~t0 = op_completed Event.op_enq ~value ~obj ~t0
let op_deq ~value ~obj ~t0 = op_completed Event.op_deq ~value ~obj ~t0
let op_deq_empty ~obj ~t0 = op_completed_empty Event.op_deq_empty ~obj ~t0
let op_push ~value ~obj ~t0 = op_completed Event.op_push ~value ~obj ~t0
let op_pop ~value ~obj ~t0 = op_completed Event.op_pop ~value ~obj ~t0
let op_pop_empty ~obj ~t0 = op_completed_empty Event.op_pop_empty ~obj ~t0
