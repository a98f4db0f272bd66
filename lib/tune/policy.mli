(** Decision rules of the self-tuning runtime (pure; unit-testable on
    synthetic observations).

    Hill climbing by doubling/halving with hysteresis: {!lean} maps one
    epoch's {!observation} to a per-dial direction, and {!decide} only
    moves a dial after [hysteresis] consecutive epochs lean the same way
    — a neutral or opposing epoch resets the streak, so noise cannot
    flap a knob. Moves are clamped to the dial's [lo..hi] range. *)

type observation = {
  ops : int;  (** futures created this epoch (sampling-weighted) *)
  slack_batch : float;
      (** mean batch of the slack-drain splice kind alone — the one kind
          a [Slack_window] dial's own window drains through *)
  force_p99_ns : int;
  pending_p50_ns : int;
      (** create→fulfil median — the latency cost batching is paying
          (median rather than tail so scheduler noise cannot masquerade
          as window pressure) *)
  fc_batch : float;  (** mean requests answered per combining pass *)
  fc_passes : int;
}

val observe : Obs.Metrics.snapshot -> observation
(** Distill one epoch's telemetry diff (pass {!Obs.Metrics.diff} of two
    snapshots, not a raw snapshot, for a scoped epoch). *)

type config = {
  min_ops : int;
  hysteresis : int;
  force_budget_ns : int;
  fill_hi : float;
  fill_lo : float;
  fc_batch_up : float;
  fc_batch_down : float;
}

val default : config

type direction = Up | Down | Hold

val lean :
  config -> Fl.Tunable.kind -> cur:int -> hi:int -> observation -> direction
(** The per-kind rule: where one epoch's evidence points for a dial
    currently at [cur] (with range ceiling [hi] — used by
    [Fc_scan_limit], where [cur = 0] means unlimited and reads as
    [hi]). *)

type votes = { mutable up : int; mutable down : int }
(** Hysteresis state, one per controlled dial; owned by whoever calls
    {!decide} (the controller domain). *)

val new_votes : unit -> votes

val decide : config -> Fl.Tunable.dial -> votes -> observation -> int option
(** Feed one epoch through a dial's vote machine: [Some v] = set the
    dial to [v] now, [None] = leave it alone this epoch. *)
