(** Open-loop arrival processes.

    A {!schedule} is the service layer's generator: it stamps every
    request with its {e intended} arrival time, independent of how fast
    the system absorbs requests. When the system falls behind, the
    generator does not slow down — requests queue, and their sojourn
    clocks keep running from the intended stamp. That is what makes
    latency recorded against these stamps coordinated-omission-safe.

    All waits go through {!Sync.Mono.wait_until_ns} (a sleep, then a
    loop that yields the core; never a raw spin), and no rate, burst
    size or gap — including burst 1 and arbitrarily high rates — can
    divide by zero or hang. *)

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
