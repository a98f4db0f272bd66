(* Decision rules of the self-tuning runtime: pure functions from one
   epoch's telemetry diff to per-dial lean directions, plus the
   hysteresis vote machine that turns leans into actual moves.

   The shape is AIMD-by-doubling hill climbing: a dial moves by a factor
   of two (clamped to its [lo..hi] range) only after [hysteresis]
   consecutive epochs lean the same way, and any disagreeing or neutral
   epoch resets the streak — so one noisy epoch can neither flap a knob
   nor stall a sustained trend for long. All decisions read one
   Metrics diff; nothing here touches a structure hot path. *)

type observation = {
  ops : int; (* futures created this epoch (sampling-weighted) *)
  slack_batch : float; (* mean batch over the slack-drain splice kind *)
  force_p99_ns : int;
  pending_p50_ns : int; (* create->fulfil median: the latency batching
                           spends. Median, not tail: on an oversubscribed
                           host the p99 is owned by scheduler preemption,
                           the median by the window size. *)
  fc_batch : float; (* mean requests answered per combining pass *)
  fc_passes : int;
}

(* Build an observation from a Metrics diff. The slack signal reads the
   slack-drain splice kind ALONE: a Slack_window dial steers a [Slack]
   window, and those drain through exactly that kind — mixing in the
   per-structure opbuf window kinds (whose bounds no slack dial
   controls, and whose batches run small under light load) would dilute
   the fill signal into the hold band and pin the dial wherever it
   started. Combining passes are their own kind too, so no knob ever
   reads another knob's batches. *)
let observe (d : Obs.Metrics.snapshot) =
  let module E = Obs.Event in
  {
    ops = d.futures_created;
    slack_batch = Obs.Metrics.kind_mean_batch d E.k_slack_drain;
    force_p99_ns = Obs.Metrics.force_p99 d;
    pending_p50_ns = Obs.Metrics.pendingness_p50 d;
    fc_batch = Obs.Metrics.kind_mean_batch d E.k_fc_pass;
    fc_passes = d.splice_kind_splices.(E.k_fc_pass);
  }

type config = {
  min_ops : int; (* idle gate: epochs below this hold every dial *)
  hysteresis : int; (* consecutive same-direction epochs before a move *)
  force_budget_ns : int; (* latency budget: slack backs off when either
                            force p99 or pendingness p99 exceeds this *)
  fill_hi : float; (* windows filling past this fraction widen slack *)
  fill_lo : float; (* windows under this fraction shrink slack *)
  fc_batch_up : float; (* passes answering >= this raise the budget *)
  fc_batch_down : float; (* passes answering <= this lower it *)
}

let default =
  {
    min_ops = 64;
    hysteresis = 2;
    force_budget_ns = 100_000;
    fill_hi = 0.75;
    fill_lo = 0.25;
    (* A combining pass pays for itself only when it answers several
       requests: near-single-request passes (batch below ~1.75) mean the
       budget is buying latency, not batching, so the budget shrinks
       unless passes are genuinely fat. *)
    fc_batch_up = 3.0;
    fc_batch_down = 1.75;
  }

type direction = Up | Down | Hold

(* The per-kind lean rules. [cur] is the dial's current value (for
   Fc_scan_limit, 0 means unlimited and reads as [hi]). *)
let lean cfg (kind : Fl.Tunable.kind) ~cur ~hi (o : observation) =
  match kind with
  | Fl.Tunable.Slack_window ->
      if o.ops < cfg.min_ops then Hold
      else if
        o.force_p99_ns > cfg.force_budget_ns
        || o.pending_p50_ns > cfg.force_budget_ns
      then
        (* Over the latency budget: forces are stalling, or futures sit
           pending so long that a wider window is buying nothing callers
           can feel. Trade batching for latency before anything else —
           this is also what stops the fill rule's climb, since under
           saturation a window of any size drains full. *)
        Down
      else if o.slack_batch >= cfg.fill_hi *. float_of_int cur then
        (* Windows drain nearly full — traffic would fill a bigger one. *)
        Up
      else if o.slack_batch < cfg.fill_lo *. float_of_int cur then Down
      else Hold
  | Fl.Tunable.Fc_pass_budget ->
      if o.fc_passes = 0 then Hold
      else if o.fc_batch >= cfg.fc_batch_up then Up
      else if o.fc_batch <= cfg.fc_batch_down then Down
      else Hold
  | Fl.Tunable.Fc_scan_limit ->
      if o.fc_passes = 0 then Hold
      else if o.fc_batch < cfg.fc_batch_up then
        (* Light combining: passes answer ~one request each, so a scan
           bound saves nothing and its cursor bookkeeping is pure
           per-pass overhead — climb back toward the dial's top, which
           the fc dial maps to the zero-overhead unbounded scan. *)
        Up
      else begin
        (* Real combining pressure: aim the bound at a small multiple of
           the observed batch — enough headroom to answer everyone, not
           enough to pay for a long tail of retained idle records. *)
        let cur = if cur <= 0 then hi else cur in
        let desired = max 8 (4 * int_of_float (ceil o.fc_batch)) in
        if desired >= 2 * cur then Up
        else if 2 * desired <= cur then Down
        else Hold
      end

(* Hysteresis vote state, one per controlled dial. *)
type votes = { mutable up : int; mutable down : int }

let new_votes () = { up = 0; down = 0 }

(* Feed one epoch's observation through a dial's vote machine. Returns
   the value to set, or [None] to leave the dial alone this epoch. *)
let decide cfg (dial : Fl.Tunable.dial) votes o =
  let cur = dial.get () in
  match lean cfg dial.kind ~cur ~hi:dial.hi o with
  | Hold ->
      votes.up <- 0;
      votes.down <- 0;
      None
  | Up ->
      votes.down <- 0;
      votes.up <- votes.up + 1;
      if votes.up < cfg.hysteresis then None
      else begin
        votes.up <- 0;
        let cur = if cur <= 0 then dial.hi else cur in
        let next = min dial.hi (2 * cur) in
        if next <> dial.get () then Some next else None
      end
  | Down ->
      votes.up <- 0;
      votes.down <- votes.down + 1;
      if votes.down < cfg.hysteresis then None
      else begin
        votes.down <- 0;
        let cur = if cur <= 0 then dial.hi else cur in
        (* Floor at 1 even when [lo = 0]: for the scan limit, 0 means
           unlimited — a maximal setting, not a minimal one — so halving
           must never fall through to it. *)
        let next = max dial.lo (max 1 (cur / 2)) in
        if next <> cur then Some next else None
      end
