(** Arrival-process pacing.

    Two modes. The {e closed-loop} pacer ([t]/[pacer]/[tick]) gates an
    issue loop: steady back-to-back issue, or bursts of [burst]
    operations separated by [pause_ns] idle gaps. The adapt benchmark
    sweeps both regimes; bursty arrivals are the stress case for an
    online controller.

    The {e open-loop} schedule ([process]/[schedule]/[next_arrival_ns])
    is the service layer's generator: it stamps every request with its
    {e intended} arrival time, independent of how fast the system
    absorbs requests. When the system falls behind, the generator does
    not slow down — requests queue, and their sojourn clocks keep
    running from the intended stamp. That is what makes latency
    recorded against these stamps coordinated-omission-safe.

    All waits go through {!Sync.Mono.wait_until_ns} (a sleep, then a
    loop that yields the core; never a raw spin), and no rate, burst size or gap — including burst 1, a zero gap, and
    arbitrarily high rates — can divide by zero or hang. *)

type t = Steady | Bursty of { burst : int; pause_ns : int }

val to_string : t -> string

type pacer
(** Per-worker state; one per worker thread, never shared. *)

val pacer : t -> pacer
(** Raises [Invalid_argument] if [burst < 1] or [pause_ns < 0]. *)

val tick : pacer -> unit
(** Call once per issued operation; waits out the idle gap when a burst
    ends. [Steady] ticks, zero gaps, and bursts of 1 with no gap are
    free. *)

(** {2 Open-loop arrival processes} *)

type process =
  | Periodic of { rate : float }  (** deterministic interarrival gaps *)
  | Poisson of { rate : float }
      (** exponential interarrival gaps — memoryless open-loop traffic *)
  | Burst of { rate : float; burst : int }
      (** [burst] coincident arrivals, then an idle gap sized to keep
          the long-run rate at [rate] *)

val process_to_string : process -> string

val validate : process -> unit
(** Raises [Invalid_argument] on a non-positive or non-finite rate, or
    [burst < 1]. [schedule] validates implicitly. *)

type schedule
(** Per-worker generator state; one per worker thread, never shared. *)

val schedule : ?start_ns:int -> process -> rng:Rng.t -> schedule
(** [schedule p ~rng] starts the process at [start_ns] (default: now on
    the monotonic clock). Raises like {!validate}. *)

val next_arrival_ns : schedule -> int
(** Intended arrival stamp (monotonic ns) of the next request;
    monotonically nondecreasing. Very high rates saturate to zero gaps
    — every arrival carries the same stamp — rather than dividing by
    zero or going negative. *)

val wait_until : int -> unit
(** Wait until the monotonic clock reaches the given stamp, within a
    few µs ({!Sync.Mono.wait_until_ns}); returns immediately when the
    stamp is already past — the open-loop generator is behind and must
    issue, never skip. Each call hits the fault point [arrival.wait]
    once. *)
