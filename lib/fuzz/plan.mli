(** Seeded schedule-perturbation plans.

    A plan is a pure list of {!Faults.plan_step}s — "the [at]-th hit of
    point [pt] performs [act]" — generated deterministically from a seed
    and installed with {!Faults.install_plan} for the duration of one
    program execution. Because a plan is data, the schedule it injects is
    replayable: the same plan stalls the same hits of the same points.

    Stall plans use only [Delay]/[Sleep]. [Kill] actions are generated
    only when [kills] is set: a killed operation may or may not have
    taken effect, which a recorded-history checker cannot tell apart, so
    history-checked targets never see kills — except [tuned], whose
    operations never pass a kill point (the only reachable kill point is
    the controller's ["tune.epoch"]). *)

type t = Faults.plan_step list

val stall_points : string list
(** Injection points stall plans draw from (includes [fuzz.step], hit
    before every program step). *)

val kill_points : string list
(** The default points kill actions are drawn from: the flat-combining
    and shard transfer protocol points, plus the self-tuning
    controller's ["tune.epoch"]. *)

val generate :
  ?intensity:int ->
  ?kills:bool ->
  ?kill_points:string list ->
  ?reach:(string * int) list ->
  seed:int ->
  unit ->
  t
(** [intensity] steps (default 12), hit indices uniform in [0, 160);
    kill steps, when [kills] is set, at one of [kill_points] (default
    {!kill_points}). [reach], a dry run's hit count per point
    ({!Exec.reach}), sizes every step: a kill or stall step then picks
    only a point the dry run reached, with a hit index below its count.
    A target that reached no kill point gets no kill steps, and one that
    reached no stall point gets a shorter plan. Deterministic in
    [(intensity, kills, kill_points, reach, seed)]. *)

val has_kills : t -> bool

val step_to_string : Faults.plan_step -> string
(** Canonical one-line form; [Sleep] durations print as [%h] hex floats
    so the round-trip is bit-exact. *)

val step_of_string : string -> Faults.plan_step
(** Inverse of {!step_to_string}; raises [Invalid_argument]. *)

val shrink_candidates : t -> t list
(** Strictly smaller plans, the empty plan first. *)
