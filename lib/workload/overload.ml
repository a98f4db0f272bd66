(* The admission controller: a policy on the background epoch loop
   (Epoch) that walks the Admit -> Squeeze -> Shed -> Degrade ladder on
   hot epochs and back, with hysteresis, on calm ones. See overload.mli
   for the contract.

   Concurrency shape: [admit] is called from every worker on every
   arrival, so the decision reads two atomics (stage, shed percent) and
   draws a ticket from a striped-enough counter; all ladder bookkeeping
   (the calm streak) is owned by whoever calls [step] — the background
   domain once started, or a test driving epochs by hand — never both.
   Stage transitions publish through the atomics, so workers see them
   at their next arrival without fences. *)

type stage = Admit | Squeeze | Shed | Degrade

let stage_index = function Admit -> 0 | Squeeze -> 1 | Shed -> 2 | Degrade -> 3

let stage_of_index = function
  | 0 -> Admit
  | 1 -> Squeeze
  | 2 -> Shed
  | _ -> Degrade

let stage_name = function
  | Admit -> "admit"
  | Squeeze -> "squeeze"
  | Shed -> "shed"
  | Degrade -> "degrade"

type config = {
  min_ops : int;
  p99_budget_ns : int;
  pending_budget_ns : int;
  sojourn_budget_ns : int;
  recover_fraction : float;
  hysteresis : int;
  squeeze_slack : int;
  shed_floor : int;
  shed_ceiling : int;
}

let default =
  {
    min_ops = 32;
    p99_budget_ns = 1_000_000;
    pending_budget_ns = 10_000_000;
    sojourn_budget_ns = 50_000_000;
    recover_fraction = 0.5;
    hysteresis = 3;
    squeeze_slack = 1;
    shed_floor = 25;
    shed_ceiling = 90;
  }

type t = {
  cfg : config;
  stage : int Atomic.t; (* stage_index, read by every admit *)
  shed_pct : int Atomic.t; (* percent of arrivals refused at >= Shed *)
  ticket : int Atomic.t; (* admission lottery counter *)
  (* Registered slack windows with their registration-time bounds;
     CAS-push, never removed (windows die with their structures). *)
  slacks : (Fl.Slack.t * int) list Atomic.t;
  offered : int Atomic.t;
  sheds : int Atomic.t;
  escalations : int Atomic.t;
  recoveries : int Atomic.t;
  mutable calm_streak : int; (* owned by the [step] caller *)
  loop : Epoch.t;
}

let default_epoch = 0.005

let create ?(cfg = default) ?(epoch = default_epoch) () =
  let loop =
    Epoch.create ~owner:"Overload" ~point:"service.epoch" ~period:epoch
  in
  if cfg.min_ops < 0 then invalid_arg "Overload.create: min_ops < 0";
  if cfg.p99_budget_ns < 1 || cfg.pending_budget_ns < 1
     || cfg.sojourn_budget_ns < 1
  then invalid_arg "Overload.create: budgets must be >= 1";
  if cfg.recover_fraction <= 0.0 || cfg.recover_fraction > 1.0 then
    invalid_arg "Overload.create: recover_fraction must be in (0, 1]";
  if cfg.hysteresis < 1 then invalid_arg "Overload.create: hysteresis < 1";
  if cfg.squeeze_slack < 1 then invalid_arg "Overload.create: squeeze_slack < 1";
  if
    cfg.shed_floor < 0 || cfg.shed_ceiling > 100
    || cfg.shed_floor > cfg.shed_ceiling
  then invalid_arg "Overload.create: shed percents must satisfy 0 <= floor <= ceiling <= 100";
  {
    cfg;
    stage = Atomic.make 0;
    shed_pct = Atomic.make 0;
    ticket = Atomic.make 0;
    slacks = Atomic.make [];
    offered = Atomic.make 0;
    sheds = Atomic.make 0;
    escalations = Atomic.make 0;
    recoveries = Atomic.make 0;
    calm_streak = 0;
    loop;
  }

let stage t = stage_of_index (Atomic.get t.stage)
let shed_percent t = Atomic.get t.shed_pct
let writes_degraded t = Atomic.get t.stage >= 3
let offered t = Atomic.get t.offered
let sheds t = Atomic.get t.sheds
let escalations t = Atomic.get t.escalations
let recoveries t = Atomic.get t.recoveries
let epochs t = Epoch.epochs t.loop
let errors t = Epoch.errors t.loop

(* Set every registered window to [bound orig]; a window whose setter
   raises costs one error, not the others. *)
let set_slacks t bound =
  List.iter
    (fun (s, orig) ->
      try Fl.Slack.set_slack s (bound orig) with _ -> Epoch.error t.loop)
    (Atomic.get t.slacks)

let squeeze_slacks t = set_slacks t (fun _ -> t.cfg.squeeze_slack)
let restore_slacks t = set_slacks t Fun.id

let register_slack t s =
  let entry = (s, Fl.Slack.slack s) in
  let rec push () =
    let cur = Atomic.get t.slacks in
    if not (Atomic.compare_and_set t.slacks cur (entry :: cur)) then push ()
  in
  push ();
  (* A worker joining a squeezed service squeezes immediately. *)
  if Atomic.get t.stage >= 1 then
    try Fl.Slack.set_slack s t.cfg.squeeze_slack
    with _ -> Epoch.error t.loop

(* Apply the actions of a transition old -> next (one rung either way)
   and publish it. Runs on the [step] caller only. *)
let transition t ~from ~to_ =
  Atomic.set t.stage to_;
  Obs.service_stage ~from ~to_;
  (match stage_of_index to_ with
  | Admit -> restore_slacks t
  | Squeeze ->
      squeeze_slacks t;
      Atomic.set t.shed_pct 0
  | Shed -> Atomic.set t.shed_pct t.cfg.shed_floor
  | Degrade ->
      Faults.point "service.degrade";
      Atomic.set t.shed_pct t.cfg.shed_ceiling);
  if to_ > from then Atomic.incr t.escalations else Atomic.incr t.recoveries

let escalate t =
  let cur = Atomic.get t.stage in
  if cur < 3 then transition t ~from:cur ~to_:(cur + 1)
  else begin
    (* Already fully degraded: keep the shed fraction at the ceiling. *)
    Atomic.set t.shed_pct t.cfg.shed_ceiling
  end

(* A hot epoch while sitting at Shed ramps the shed fraction before the
   ladder moves on to Degrade: refuse more traffic first, refuse writes
   only if that still is not enough. Ramping counts as the epoch's
   response, so the caller escalates only when the ramp is exhausted. *)
let ramp_or_escalate t =
  if Atomic.get t.stage = 2 then begin
    let cur = Atomic.get t.shed_pct in
    let next = min t.cfg.shed_ceiling (max 1 (2 * cur)) in
    if next > cur then Atomic.set t.shed_pct next else escalate t
  end
  else escalate t

let de_escalate t =
  let cur = Atomic.get t.stage in
  if cur > 0 then transition t ~from:cur ~to_:(cur - 1)

(* One epoch's ladder move over a metrics diff. *)
let observe t d =
  let force_p99 = Obs.Metrics.force_p99 d in
  let pend_p99 = Obs.Metrics.pendingness_p99 d in
  (* Sojourn is the open-loop signal: when the arrival generator falls
     behind, every individual force can still be fast — only the
     intended-arrival→forced sojourn shows the backlog. It is unsampled,
     so it also contributes to the idle gate. *)
  let sojourn_p99 = Obs.Metrics.service_p99 d in
  let completions = Obs.Histogram.count d.Obs.Metrics.service_ns in
  let busy =
    d.Obs.Metrics.futures_created >= t.cfg.min_ops
    || completions >= t.cfg.min_ops
  in
  let under frac signal budget =
    float_of_int signal <= frac *. float_of_int budget
  in
  let hot =
    busy
    && (force_p99 > t.cfg.p99_budget_ns
       || pend_p99 > t.cfg.pending_budget_ns
       || sojourn_p99 > t.cfg.sojourn_budget_ns)
  in
  let calm =
    (not busy)
    || (under t.cfg.recover_fraction force_p99 t.cfg.p99_budget_ns
       && under t.cfg.recover_fraction pend_p99 t.cfg.pending_budget_ns
       && under t.cfg.recover_fraction sojourn_p99 t.cfg.sojourn_budget_ns)
  in
  if hot then begin
    t.calm_streak <- 0;
    ramp_or_escalate t
  end
  else if calm then begin
    t.calm_streak <- t.calm_streak + 1;
    if t.calm_streak >= t.cfg.hysteresis then begin
      t.calm_streak <- 0;
      de_escalate t
    end
  end
  else t.calm_streak <- 0

let step t = Epoch.step t.loop (observe t)

let force_stage t s =
  let target = stage_index s in
  let rec walk () =
    let cur = Atomic.get t.stage in
    if cur < target then begin
      transition t ~from:cur ~to_:(cur + 1);
      walk ()
    end
    else if cur > target then begin
      transition t ~from:cur ~to_:(cur - 1);
      walk ()
    end
  in
  walk ()

let admit t =
  Faults.point "service.admit";
  Atomic.incr t.offered;
  if Atomic.get t.stage < 2 then begin
    Obs.service_admit ();
    true
  end
  else begin
    let pct = Atomic.get t.shed_pct in
    let ticket = Atomic.fetch_and_add t.ticket 1 in
    if ticket mod 100 < pct then begin
      Faults.point "service.shed";
      Obs.service_shed ~stage:(Atomic.get t.stage);
      Atomic.incr t.sheds;
      false
    end
    else begin
      Obs.service_admit ();
      true
    end
  end

let start t = Epoch.start t.loop (observe t)
let stop t = Epoch.stop t.loop
let running t = Epoch.running t.loop
