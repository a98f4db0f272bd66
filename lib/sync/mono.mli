(** Monotonic time for deadlines and measurement.

    Bounded waits ([Future.await_for], [Spinlock.try_acquire_for], …)
    used to compute deadlines from [Unix.gettimeofday]; a wall-clock
    step (NTP slew, manual adjustment, suspend/resume) could then fire a
    timeout instantly or postpone it for hours. This module reads
    [CLOCK_MONOTONIC], which only ever moves forward at one second per
    second, so [now () +. seconds] is a deadline that means what it
    says. The absolute value is meaningless (typically time since boot);
    only differences are. *)

val now_ns : unit -> int64
(** Monotonic time in nanoseconds. Allocation-free. *)

val now_ns_int : unit -> int
(** [now_ns] truncated to an OCaml int (63 bits: ~146 years of uptime).
    Unlike the [int64] reading — whose box is only elided under flambda —
    this never allocates on any compiler, which is what the obs flight
    recorder's record path needs. *)

val now : unit -> float
(** Monotonic time in seconds, for deadline arithmetic alongside
    fractional-second timeouts. *)

val elapsed_since : float -> float
(** [elapsed_since t0] is [now () -. t0]. *)

val wait_until_ns : int -> unit
(** [wait_until_ns deadline] returns once [now_ns_int () >= deadline],
    and at once when the deadline is already past. It sleeps through
    the part of the gap that a sleep cannot overshoot (all but twice
    this host's measured sleep overshoot, taken once per process at the
    first wait) and waits out the rest in a loop that yields the CPU to
    any other runnable thread on the core. So it wakes within a few µs
    of the deadline, where a sleep would wake tens of µs late, and
    burns no CPU on the long part of a gap. For clock deadlines only:
    waiting for another domain's progress is {!Backoff}'s job. *)
