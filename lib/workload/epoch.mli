(** The background epoch loop under the admission controller
    ({!Overload}).

    A value of [t] owns the loop's machinery: the background domain and its
    stop flag, a per-epoch {!Faults.point} kill site, the {!Obs.Metrics}
    snapshot-diff bookkeeping, the epoch and error counters, and the obs
    switch save/restore. The controller is then only a {e policy}: a
    function that consumes one epoch's metrics diff.

    Kill-tolerant by construction: any exception escaping the policy or
    the fault point ends the background domain and counts one error; the
    policy's last published decisions stay in place. *)

type t

val create : owner:string -> point:string -> period:float -> t
(** [owner] prefixes the [Invalid_argument] texts (["<owner>.create: epoch
    must be > 0"], ["<owner>.start: already running"]); [point] names the
    fault point fired at the top of every background epoch; [period] is
    the sleep between epochs in seconds. Raises [Invalid_argument] if
    [period <= 0]. *)

val step : t -> (Obs.Metrics.snapshot -> unit) -> unit
(** Run one epoch synchronously: diff the metrics against the previous
    epoch's snapshot, hand the diff to the policy, count the epoch. What
    the background domain calls; tests drive it by hand. Do not mix
    manual steps with a running loop. *)

val start : t -> (Obs.Metrics.snapshot -> unit) -> unit
(** Spawn the background domain running [step] every [period] seconds.
    Turns the obs switch on if it was off ({!stop} restores it) and
    re-bases the snapshot. Raises [Invalid_argument] if already
    running. *)

val stop : t -> unit
(** Flag the loop, join the domain (a no-op if it already died), restore
    the obs switch. Idempotent. *)

val running : t -> bool

val epochs : t -> int
(** Completed epochs. *)

val errors : t -> int
(** Loop deaths plus every {!error} the policy reported. *)

val error : t -> unit
(** Count one policy error (e.g. a slack setter that raised) without
    ending the epoch. *)
