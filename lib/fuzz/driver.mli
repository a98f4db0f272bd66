(** Fuzz campaigns: generate, execute, shrink, save, replay.

    One campaign fuzzes one target. Iteration [i] derives a program seed
    and a plan seed from [(seed, i)] through dedicated rng streams, so
    the whole campaign — programs, plans, and (for deterministic
    failures) verdicts — is a pure function of the campaign seed, except
    that a kill-plan target first dry-runs each program ({!Exec.reach})
    and draws its kill steps only where that run reached. The
    campaign stops at the first violation: the counterexample is shrunk
    (program first, then plan) and written as
    [<out_dir>/<seed>.repro]. *)

type report = {
  target : string;
  condition : Lin.Order.condition;
  iters : int;  (** iterations executed (≤ requested; stops at failure) *)
  total_ops : int;
  violations : int;  (** 0 or 1 — the campaign stops at the first *)
  fsc_witnesses : int;
      (** iterations where [fig3] exhibited the Figure-3 global-Fsc
          failure over per-object-correct queues *)
  plan_steps : int;  (** plan steps generated over all iterations *)
  inert_steps : int;  (** of those, steps whose hit never came *)
  kill_steps : int;  (** plan steps that kill *)
  inert_kills : int;  (** of those, kill steps whose hit never came *)
  repro_path : string option;
  shrunk_ops : int option;  (** recorded ops in the shrunk program *)
  shrunk_plan : int option;  (** steps in the shrunk plan *)
  first_failure : string option;
}

val default_out_dir : string
(** [results/fuzz]. *)

val fuzz :
  ?size:Program.size ->
  ?condition:Lin.Order.condition ->
  ?iters:int ->
  ?budget:float ->
  ?plan_intensity:int ->
  ?shrink_tries:int ->
  ?max_shrink_evals:int ->
  ?out_dir:string ->
  ?file:string ->
  seed:int ->
  Exec.target ->
  report
(** [condition] overrides the target's claimed condition (the
    intentionally-too-strong checks). [iters] (default 20) caps
    iterations; [budget] (seconds, default unlimited) additionally stops
    the loop on a deadline. [shrink_tries] (default 2) is how many times
    a shrink candidate is re-executed before it is declared passing
    (schedule-dependent failures need > 1); [max_shrink_evals] bounds
    the whole shrink search. [file] overrides the repro file name
    (default [<seed>.repro]). *)

val replay : string -> Repro.t * Exec.outcome
(** Load a repro file and re-execute its exact program and plan against
    its recorded target and condition. *)
