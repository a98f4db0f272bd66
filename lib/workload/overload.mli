(** Backpressure and admission control for the open-loop service layer.

    A controller that watches force-latency p99, queue pendingness and
    the open-loop service sojourn from {!Obs.Metrics} diffs (one
    background {!Epoch} loop) and walks a four-stage
    ladder as overload sets in, recovering stage by stage — with
    hysteresis — when every tail falls back under budget:

    {v
      Admit ──hot──> Squeeze ──hot──> Shed ──hot──> Degrade
        ^              |                |              |
        +«── calm ─────+«──── calm ─────+«──── calm ───+
    v}

    - {b Admit}: every request accepted, structures run at their own slack.
    - {b Squeeze}: per-handle slack windows are shrunk to
      [squeeze_slack] — smaller pending windows trade batching for
      latency before anything is refused.
    - {b Shed}: a ramping fraction of {e new} arrivals is refused with
      the {!Futures.Future.Rejected} fate (never [Cancelled]/[Broken]:
      a shed op was never accepted, so clients may resubmit via
      {!Futures.Future.retry}). Each further hot epoch doubles the shed
      fraction toward [shed_ceiling].
    - {b Degrade}: session-store writes are refused too
      ({!writes_degraded}); reads are still admitted and the sharded
      store's read-only degraded mode keeps serving them.

    Escalation is immediate (one stage per hot epoch — overload must be
    answered now); de-escalation takes [hysteresis] consecutive calm
    epochs per stage, so a borderline system does not flap.

    Fault points: [service.admit] fires on every admission decision,
    [service.shed] on every refusal, [service.degrade] on the
    transition into Degrade, and [service.epoch] at the top of every
    background epoch — so chaos schedules can delay or kill the
    controller at each; a dead controller leaves the last-good stage in
    place and the service keeps running. *)

type stage = Admit | Squeeze | Shed | Degrade

val stage_index : stage -> int
(** Admit = 0 … Degrade = 3 (the [Obs] service-stage encoding). *)

val stage_name : stage -> string

type config = {
  min_ops : int;
      (** epochs observing fewer created futures {e and} fewer service
          completions are idle *)
  p99_budget_ns : int;  (** hot when force p99 exceeds this *)
  pending_budget_ns : int;  (** … or pendingness p99 exceeds this *)
  sojourn_budget_ns : int;
      (** … or the service sojourn p99 exceeds this. The open-loop
          signal: a generator that has fallen behind still forces each
          future quickly — only the intended-arrival→forced sojourn
          exposes the backlog *)
  recover_fraction : float;
      (** calm when both signals are under [fraction × budget] *)
  hysteresis : int;  (** consecutive calm epochs per de-escalation *)
  squeeze_slack : int;  (** slack bound while at Squeeze or beyond *)
  shed_floor : int;  (** percent of arrivals shed on entering Shed *)
  shed_ceiling : int;  (** shed percent cap; Degrade sheds at the cap *)
}

val default : config

type t

val create : ?cfg:config -> ?epoch:float -> unit -> t
(** [epoch] (default 5 ms) is the background control period. Raises
    [Invalid_argument] if [epoch <= 0] or the config is malformed
    (budgets or slack < 1, shed percents outside [0..100] or
    [floor > ceiling], [hysteresis < 1], [recover_fraction] outside
    (0..1]). *)

val register_slack : t -> Fl.Slack.t -> unit
(** Put a worker's slack window under the controller's control: shrunk
    to [squeeze_slack] at Squeeze and beyond, restored to its
    registration-time bound on full recovery. Safe from any domain. *)

val admit : t -> bool
(** One admission decision ([false] = shed this arrival). Fires
    [service.admit] (always) and [service.shed] (on refusal) fault
    points — an injected [Faults.Killed] propagates to the caller like
    any worker death. Counted exactly in {!offered}/{!sheds} and
    mirrored into [Obs]. *)

val writes_degraded : t -> bool
(** True at Degrade: refuse session-store writes, serve reads. *)

val stage : t -> stage
val shed_percent : t -> int

val step : t -> unit
(** One control epoch (diff metrics, walk the ladder). Public so tests
    and the fuzzer drive the ladder without the background domain;
    [start]/[stop] run it periodically. *)

val force_stage : t -> stage -> unit
(** Jump the ladder directly (applying each transition's actions), for
    tests and the fuzzer's synthetic overload schedules. *)

val start : t -> unit
(** Spawn the background epoch domain (enables [Obs] if needed — the
    controller is a telemetry consumer). Raises [Invalid_argument] if
    already running. *)

val stop : t -> unit
(** Stop and join the background domain; restores the [Obs] switch.
    The current stage and slack settings are left in place. *)

val running : t -> bool

(** {2 Counters} *)

val offered : t -> int
val sheds : t -> int
val escalations : t -> int
val recoveries : t -> int
val epochs : t -> int
val errors : t -> int
