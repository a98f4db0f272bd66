(** Futures for operations on long-lived shared data structures
    (Kogan & Herlihy §2, §4).

    A future is a promise for the result of a {e pending} operation: one
    whose invocation has occurred but which has not yet been applied to its
    object. The paper's prototype realizes a future as an object with
    [opCode]/[value]/[result]/[resultReady] fields; here the operation
    descriptor (opCode/value) lives in the data structure's own pending
    lists, and the future is the result cell plus an {e evaluator} — the
    hook a data structure gives at creation so that forcing the future
    flushes the pending operations that must take effect for the result
    to exist. The evaluator receives the future being forced, so a data
    structure builds its evaluators once per handle and every op's
    future shares one: invoking an op allocates only the future.

    Concurrency contract (paper §6 model): a future is created and forced
    by one owner thread, but may be {e fulfilled} by any thread (e.g. a
    strong-FL evaluator draining the shared pending queue, or elimination
    pairing a pop with another pending push). [fulfil] vs [is_ready]/[get]
    synchronize through an atomic cell.

    {b Lifecycle.} A future has exactly one of four terminal fates, decided
    by a single atomic transition out of the pending state:

    {v
              +----------- fulfil ----------> applied   (Ready v)
      pending +----------- cancel ----------> cancelled (raises Cancelled)
              +----------- poison ----------> poisoned  (raises Broken e)
              +----------- reject ----------> rejected  (raises Rejected)
    v}

    [fulfil], [cancel], [poison] and [reject] race cleanly: exactly one
    wins, the losers observe [false]. Every wait ([force]/[await]/
    [await_for]/[force_until]) on a terminated future raises its terminal
    exception instead of spinning, so no waiter ever hangs on an op that
    will never be applied.

    {b Layout.} A future is one heap block,
    [{ mutable state; evaluator; born }]: a whole create → fulfil →
    force life allocates 6 words (the block and its [Ready] box), and so
    does [of_value]. OCaml 5.1 has no atomic record fields, so [state] is
    read and CASed with [Atomic.get]/[Atomic.compare_and_set] on the
    block cast to [state Atomic.t] — the field-0 idiom of
    [Lockfree.Harris_kv]'s nodes (see [harris_kv.mli]). It is sound
    because an ['a Atomic.t] is a one-field tag-0 block and the atomic
    primitives touch only field 0: [state] is field 0 of a record (tag 0,
    scanned by the GC); it is [mutable], so the compiler never shares,
    lifts or caches the block; and it is never read or written except
    through the cast. The evaluator is stored bare and never changes,
    with a static sentinel closure standing for "none". *)

type 'a t

val create : unit -> 'a t
(** A pending future with no evaluator ([force] on it spin-waits). *)

val create_with : evaluator:('a t -> unit) -> 'a t
(** A pending future whose [force] runs [evaluator t] on the future [t]
    itself to make the result ready. The evaluator must cause [fulfil]
    of [t] (directly or transitively); [force] verifies this and raises
    [Stuck] otherwise. It runs on the owner thread, at most once per
    force that finds [t] pending, and may be shared by any number of
    futures: a handle's [fun _ -> flush h] needs no per-op copy, and an
    evaluator that must stop once its own op is applied tests the
    future it is given. *)

val of_value : 'a -> 'a t
(** An already-fulfilled future — used for operations that are eliminated
    or combined at invocation time, and for treating non-future return
    values as "futures that are evaluated immediately" (§4). *)

exception Already_fulfilled

val fulfil : 'a t -> 'a -> unit
(** Write the result and set it ready. Any thread may call this, once.
    @raise Already_fulfilled on a second fulfilment, or if the future was
    cancelled or poisoned first. *)

val try_fulfil : 'a t -> 'a -> bool
(** Like [fulfil] but returns [false] instead of raising. *)

exception Cancelled
(** Terminal state of a future whose owner withdrew the pending op with
    [cancel] before it was applied. Raised by every wait on it. *)

exception Broken of exn
(** Terminal state of a future marked unfulfillable by [poison]; carries
    the poisoner's reason. Raised by every wait on it. *)

exception Orphaned
(** The canonical [Broken] payload used by the recovery layer: the op's
    owner died before the op could be applied, and a recovery hook
    ([abandon] on the owner's handle) poisoned the future. *)

exception Rejected
(** Terminal state of a future refused by admission control before its
    op was ever accepted into a pending window. Distinct from
    [Cancelled] (the owner withdrew an accepted op) and [Broken] (an
    accepted op was lost): a rejected op left no trace in any structure,
    so resubmitting it — see {!retry} — is always safe. *)

val cancel : 'a t -> bool
(** [cancel t] withdraws the pending operation: CAS pending → cancelled.
    Returns [false] if the future was already applied, cancelled or
    poisoned — losing the race to a concurrent [fulfil] is clean, the
    fulfilled value stands. Owner thread only (the owner is the only
    thread entitled to withdraw its own op); the data structure skips
    cancelled ops at flush time via their tombstoned window slots. *)

val poison : 'a t -> exn -> bool
(** [poison t e] marks an orphan: CAS pending → [Broken e]. Any thread
    may call it (unlike [cancel] it does not withdraw a live owner's op —
    it marks an op whose owner is gone so waiters stop spinning).
    Returns [false] if the future already reached a terminal state. *)

val reject : 'a t -> bool
(** [reject t] refuses the op at admission: CAS pending → rejected.
    Called by the overload-control layer on a future whose op it never
    admitted; waiters raise [Rejected]. Returns [false] if the future
    already reached a terminal state. *)

val rejected : unit -> 'a t
(** A born-rejected future — what an admission gate hands back when it
    sheds a request before any structure saw the op. *)

val is_ready : 'a t -> bool
(** The paper's [resultReady] test: does a result exist yet? Cancelled
    and poisoned futures are not ready. *)

val is_pending : 'a t -> bool
(** Still awaiting its fate: not applied, cancelled or poisoned. *)

val is_cancelled : 'a t -> bool
val is_poisoned : 'a t -> bool
val is_rejected : 'a t -> bool

val peek : 'a t -> 'a option
(** The result if ready, without forcing. *)

exception Stuck
(** Raised by [force] when a future has no evaluator, is not
    being fulfilled by anyone, and would therefore wait forever. *)

val force : 'a t -> 'a
(** Evaluate ("touch") the future: if pending, run its evaluator, then
    return the result. Idempotent; subsequent calls return the cached
    result. Must only be called by the owner thread.
    @raise Stuck if there is no evaluator and the result does not
    become ready after a bounded wait.
    @raise Cancelled / [Broken _] if the future reached that terminal
    state (the evaluator is not run). *)

val await : 'a t -> 'a
(** Spin (with backoff) until some other thread fulfils the future, then
    return the result. Unlike [force], never runs the evaluator — for
    consumers that know a producer will fulfil.
    @raise Cancelled / [Broken _] if the future is terminated instead of
    fulfilled — e.g. the producer died and recovery poisoned the op. *)

exception Timeout
(** Raised by the bounded waits below when their deadline passes while
    the future is still pending. The future itself is untouched: it may
    still be fulfilled later, and the owner may retry or switch to the
    unbounded wait. *)

val force_until : 'a t -> deadline:float -> 'a
(** [force_until t ~deadline] is [force t], except that the
    no-evaluator wait for a concurrent fulfiller is bounded by the
    absolute monotonic time [deadline] (as returned by [Sync.Mono.now];
    immune to wall-clock jumps) instead of a fixed round count.
    @raise Timeout if the deadline passes first — the graceful
    alternative to spinning on a fulfiller that died.
    @raise Stuck if the evaluator returns without fulfilling
    (evaluators run to completion; the deadline does not abort them). *)

val await_for : 'a t -> seconds:float -> 'a
(** [await_for t ~seconds] is [await t] bounded by a relative timeout
    measured on the monotonic clock.
    @raise Timeout if no thread fulfils the future within [seconds]. *)

val retry : ?attempts:int -> (unit -> 'a t) -> 'a t
(** [retry ~attempts f] is the bounded-resubmission path for [Rejected]
    — and only [Rejected]: cancelled and poisoned futures name ops that
    were accepted, where blind resubmission could double-apply. [f] is
    called up to [attempts] (default 3) times; after each future that
    comes back already rejected the caller backs off (yielding, so a
    shedding service is not hammered by its own clients) and resubmits.
    The last attempt's future is returned as-is — still rejected if the
    admission gate never relented. Raises [Invalid_argument] if
    [attempts < 1]. *)

(** {2 Combinators}

    Derived futures for composing pending operations; forcing the derived
    future forces its parents. They share the owner's thread, so the
    at-most-once / owner-only discipline extends to them. Terminal states
    propagate: forcing a derived future whose parent was cancelled or
    poisoned raises the parent's exception (not [Stuck]) and terminates
    the derived future the same way, so later forces short-circuit. *)

val map : ('a -> 'b) -> 'a t -> 'b t
(** [map f fut] is a future for [f] applied to [fut]'s result; forcing it
    forces [fut]. [f] runs at most once, at forcing time. *)

val both : 'a t -> 'b t -> ('a * 'b) t
(** [both a b] forces [a] then [b] when forced. *)

val all : 'a t list -> 'a list t
(** [all fs] forces every future in order when forced; useful for
    treating a slack window as a single batch result. *)
