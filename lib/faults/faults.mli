(** Deterministic fault injection for helper-based concurrency.

    The paper's designs (futures with slack, flat combining, strong-FL
    evaluation) all let one thread apply {e another} thread's pending
    operations. That delegation is exactly what makes them fragile: a
    slow or dead helper turns every waiter's spin loop into a hang. This
    module plants named {e injection points} on those hot paths so a
    seeded schedule can provoke the bad interleavings on demand —
    delays, [Domain.cpu_relax] storms, forced yields, or simulated
    thread death — while costing a single atomic load when disabled.

    Two modes, composable:

    - {e Seeded chaos} ([enable ~seed], or the [FLDS_FAULTS=<seed>]
      environment variable at program start): every point hit draws from
      a per-domain splitmix stream and, with small probability, perturbs
      the schedule. Kill actions are opt-in ([~kill:true]); the
      environment variable never kills, so [FLDS_FAULTS=n dune runtest]
      is a pure schedule-perturbation run.
    - {e Scripts} ([on point f]): the [k]-th hit of a named point
      performs [f k]. Scripts override the seeded draw for their point
      and are how tests record exact fault schedules (stall the combiner
      on pass 2 for 30 ms, kill the third fulfil, …).

    Current points: [backoff.once], [spinlock.acquire], [future.fulfil],
    [future.force], [future.await], [fc.apply], [fc.pass], [fc.record],
    [elim.exchange], [elim.offer], [elim.park], [conformance.round],
    [bench.op], [fuzz.step], [slack.force] (inside the fuzzer's [slack]
    target's force thunks), [arrival.wait] (once per
    open-loop or burst-pause wait, before it waits), the sharded map's
    [shard.apply] (a lease just taken, its window not yet applied) and
    transfer protocol's [shard.grant], [shard.ship], [shard.ack] (each
    fired immediately before the corresponding ownership CAS, so a kill
    there is a death {e between} protocol states and the surviving
    endpoint recovers by lease deadline), and the service layer's
    [service.admit] (every admission decision), [service.shed] (every
    refusal), [service.degrade] (the transition into read-only degraded
    service) and [service.epoch] (top of each admission-controller
    epoch — a kill there strands the last-good overload stage, which
    the service must survive). *)

exception Killed of string
(** Simulated thread death, carrying the injection-point name. Raised
    out of [point]; never caught by this module — the victim's domain
    unwinds exactly as if the thread had been lost. *)

type action =
  | Nothing
  | Delay of int  (** spin [Domain.cpu_relax] this many times *)
  | Sleep of float  (** forced yield: sleep this many seconds *)
  | Kill  (** raise {!Killed} at the point *)

val point : string -> unit
(** [point name] is the hook compiled into hot paths. A no-op (one
    atomic load, no allocation) unless faults are enabled or a script is
    installed for any point. May raise {!Killed}. *)

(** {2 Seeded chaos} *)

val enable : ?kill:bool -> ?prob:float -> seed:int -> unit -> unit
(** Turn every point hit into a seeded draw: with probability [prob]
    (default [0.02]) the hit performs a random delay, storm or yield —
    and, when [kill] is [true] (default [false]), occasionally raises
    {!Killed}. Each domain draws from its own [Rng] stream derived from
    [seed], so a single-domain schedule is exactly reproducible and a
    multi-domain one is reproducible per domain. *)

val disable : unit -> unit
(** Stop seeded chaos. Scripts installed with {!on} keep firing. *)

val enabled : unit -> bool
(** Whether seeded chaos is active (scripts do not count). *)

(** {2 Scripted schedules} *)

val on : string -> (int -> action) -> unit
(** [on name f] makes the [k]-th hit (0-based, counted from the last
    {!reset_counters}) of point [name] perform [f k], overriding any
    seeded draw for that point. Replaces a previous script for [name]. *)

val clear : string -> unit
(** Remove the script for [name], if any. *)

type plan_step = { pt : string; at : int; act : action }
(** One step of a scripted perturbation plan: the [at]-th hit (0-based)
    of point [pt] performs [act]. *)

val install_plan : plan_step list -> unit
(** Install a whole perturbation plan at once: zero the hit counters
    (so [at] indices count from now) and script every point named in the
    list; hits not named perform nothing. Later steps for the same
    [(pt, at)] pair override earlier ones. Replaces any existing script
    for the named points, leaves other points' scripts alone; remove
    with {!clear_all}. This is the replayable-schedule driver used by
    the fuzzer: a plan is pure data, so the same plan produces the same
    injected schedule. *)

val uninstall_plan : plan_step list -> unit
(** Undo {!install_plan} for the same plan: clear the scripts of exactly
    the points the plan named (unrelated scripts keep firing) and zero
    the hit counters. Every installer must pair [install_plan] with
    [uninstall_plan] on all exit paths — the fuzzer's executor and the
    {!Workload} runner do this under [Fun.protect]. *)

val clear_all : unit -> unit
(** Remove every script, disable seeded chaos, and zero hit counters:
    back to the no-fault state. Call between recorded schedules. *)

(** {2 Diagnostics} *)

val hits : string -> int
(** Number of times [point name] was reached while injection was active
    (hits are not counted on the disabled fast path). *)

val reset_counters : unit -> unit
(** Zero all hit counters (script indices restart at 0). *)

module Rng = Rng
(** The deterministic splitmix generator, re-exported for schedule
    construction; {!Workload.Rng} is the same module. *)
