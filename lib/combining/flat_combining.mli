(** Flat combining (Hendler, Incze, Shavit & Tzafrir, SPAA 2010) with a
    combiner {e lease}.

    The closest published relative of the paper's futures approach (cited
    in its §7): threads {e publish} operation requests in per-thread
    records linked into a shared publication list; whichever thread
    acquires the combiner role scans the list and applies {e everyone's}
    pending requests to a sequential structure, writing results back.
    Like the strong-FL engine this serializes evaluation behind one role
    and gets delegation for free; unlike futures there is no slack — every
    caller blocks until its own request is answered, so combining happens
    across threads, never across one thread's consecutive operations.

    Delegation is also the failure mode: if the combiner stalls or dies
    mid-pass, every waiter's request is orphaned. The combiner role is
    therefore held under a monotonically increasing {e term} (a lease): a
    waiter that observes no per-record progress for a whole spin budget
    usurps the term and combines in the stalled combiner's place, and a
    deposed combiner abandons its scan at the next record boundary. Under
    that protocol [apply] stays responsive when a combiner is lost — the
    hazard the fault-injection points ([fc.apply], [fc.pass],
    [fc.record]) exist to provoke.

    Limit of the lease (documented, not defended): takeover is only safe
    when the stalled combiner is between records — a combiner preempted
    {e inside} a single [apply] of the sequential structure that later
    resumes concurrently with the usurper races on that structure. The
    budget (hundreds of backoff rounds, i.e. orders of magnitude longer
    than one sequential operation) makes that window negligible, and the
    injected stalls land on record boundaries where takeover is exact.

    Operations are linearizable (they take effect between invocation and
    return, under the current combiner's term). If [apply]'s underlying
    operation raises, the exception is captured in the record and
    re-raised in the owner; all other records in the pass are still
    answered.

    One {!handle} per domain; a handle has at most one request in flight. *)

type ('op, 'res) t

val create : ?takeover_budget:int -> apply:('op -> 'res) -> unit -> ('op, 'res) t
(** [create ~apply] wraps a sequential structure: [apply] is executed only
    by the current-term combiner, so it needs no synchronization of its
    own. [takeover_budget] is the number of backoff rounds a waiter
    tolerates without observing combiner progress before usurping the
    lease (default 64). Raises [Invalid_argument] if it is not positive. *)

type ('op, 'res) handle

val handle : ('op, 'res) t -> ('op, 'res) handle
(** Registers a publication record; call once per domain. *)

val apply : ('op, 'res) handle -> 'op -> 'res
(** Publish the request and wait: either some combiner answers it, or
    this thread wins (or usurps) the combiner term and combines
    everybody's requests itself. Re-raises the underlying operation's
    exception if it raised for this request.

    Exception-safe against protocol failure: if the wait itself dies
    (e.g. an injected [Faults.Killed] while this thread held the
    combiner lease), the published request is {!retire}d on the way out,
    so no later combiner applies an op whose owner is gone. *)

val retire : ('op, 'res) handle -> unit
(** Withdraw the handle's in-flight request, if any: the recovery hook
    for a record whose owner died mid-publish. If no combiner has
    claimed the request yet it is un-published (counted by
    {!retired_records}) and will never be applied; if one has, the
    stale response is drained (bounded wait) so a reused record cannot
    answer a later op with it. Callers fulfil the op's future from
    [apply]'s return value, so a retired op's future is simply never
    fulfilled — the owner's recovery layer poisons it. Safe to call from
    any thread once the owner is known dead, and idempotent. *)

val combiner_passes : ('op, 'res) t -> int
(** Number of combining passes executed (diagnostics). *)

val combiner_takeovers : ('op, 'res) t -> int
(** Number of times a waiter usurped a stalled combiner's lease
    (diagnostics; 0 in fault-free runs). *)

val retired_records : ('op, 'res) t -> int
(** Number of requests withdrawn unapplied by {!retire} (diagnostics;
    0 in fault-free runs). *)
