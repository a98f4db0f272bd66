(** Target registry and program execution.

    A {e target} pairs something to fuzz with the condition it claims
    and a way to run a {!Program.t} under a {!Plan.t}. Most targets are
    {e history-checked}: the program runs phase by phase (fresh domains
    per phase, completions deferred newest-first, [Force] steps
    flushing), every operation is recorded through {!Lin.History}, and
    the merged history is checked with the exact segmented search. A few
    are {e oracle} targets with no recorded history: [slack]
    (exactly-once evaluation policy, with kill plans marking force
    thunks that raise once), [fclease] (flat-combining
    combiner-lease sum oracle) and [shardmap] (sharded-map transfer
    protocol: liveness — no future outlives the recovery drain — and
    store refinement under kills at every protocol step). Targets with
    [kill_plan] accept kill plans; the plain history-checked targets do
    not — killed operations are ambiguous in a recorded history.

    The [service] target fuzzes the admission-controlled session path:
    map ops pass a live {!Workload.Overload} gate held in the shedding
    regime before touching a sharded store, so every op is either
    admitted (executed, history-checked on kill-free plans) or shed
    (refused before any structure call — no future, no history entry,
    no store effect). It accepts kill plans at the service.* and
    shard.* points; under kills the oracle is liveness (no admitted
    future outlives the recovery drain) plus shed exclusion (every
    surviving binding came from an admitted Bind). *)

type verdict = Pass | Violation of string

type outcome = {
  verdict : verdict;
  ops : int;  (** operations executed (recorded, for checked targets) *)
  fsc_witness : bool;
      (** [fig3] only: per-object Strong held but the global
          futures-sequential-consistency check failed — the paper's
          Figure-3 non-compositionality witness. Informational, never a
          violation. *)
  inert : Faults.plan_step list;
      (** the plan's steps that never fired: their point was hit no
          more than [at] times during the run *)
}

type runner

type target = {
  name : string;  (** e.g. ["stack/weak"], ["fig3"], ["fclease"] *)
  kind : Program.kind;
  condition : Lin.Order.condition;  (** the condition the target claims *)
  kill_plan : bool;  (** plans for this target may contain kills *)
  runner : runner;
}

val targets : target list
(** Every registry implementation (stacks, queues, lists) plus
    [map/weak], the Figure-3 two-queue shape ([fig3]), the [slack],
    [fclease] and [shardmap] oracles, and the admission-controlled
    [service] target. *)

val find : string -> target
(** Raises [Invalid_argument] for unknown names. *)

val kill_points : target -> string list
(** The points the target's generated kill steps are drawn from:
    [slack.force] for [slack] (a kill there makes that one force thunk
    raise), {!Plan.kill_points} for every other target. *)

val reach : target -> Program.t -> (string * int) list
(** A dry run: execute the program with nothing perturbed and return
    how many times each of the target's {!kill_points} and each of
    {!Plan.stall_points} was hit. A step at hit [k] of point [p] fires
    only if [k] is below [p]'s count, so this sizes the target's kill
    and stall horizons ({!Plan.generate}'s [reach]). The dry run's
    verdict is discarded. *)

val record_stack :
  impl:string ->
  Program.t ->
  Lin.Spec.Stack_spec.op Lin.History.entry array
(** Execute a (stack-kind) program against the named registry
    implementation and return the merged recorded history unjudged —
    the raw material of the {!Mega} streaming-checked mode. Raises
    [Invalid_argument] for unknown implementation names. *)

val record_queue :
  impl:string ->
  Program.t ->
  Lin.Spec.Queue_spec.op Lin.History.entry array
(** Queue counterpart of {!record_stack}. *)

val run : ?condition:Lin.Order.condition -> target -> Program.t -> Plan.t -> outcome
(** Execute the program under the installed plan and judge it.
    [condition] overrides the target's claimed condition (how the
    intentionally-too-strong checks are requested, e.g. the weak stack
    against Medium). The plan's points are scripted for the duration of
    the call and cleared afterwards; other fault scripts and seeded
    chaos are left untouched. Raises [Invalid_argument] if the plan
    kills but the target is history-checked. *)
