(** Weak-FL stack (Kogan & Herlihy §4.1).

    Weak futures linearizability lets every operation take effect anywhere
    between its invocation and its future's evaluation, so pending push and
    pop operations of the same thread may be freely reordered — maximizing
    {e elimination}: a new push is paired immediately with a pending pop
    (and vice versa), fulfilling both futures without touching the shared
    stack. Consequently a thread's local pending list only ever holds
    operations of one type. Forcing any future flushes the whole local
    list: all pending pushes (or pops) are applied to the shared Treiber
    stack with a single CAS via the multi-node extension ({e combining}).

    Shared-state is the lock-free stack; the per-thread pending state lives
    in a {!handle}, which must not be shared between domains. *)

type 'a t
type 'a handle

val create : ?elimination:bool -> unit -> 'a t
(** [elimination] defaults to [true]; [false] disables invocation-time
    push/pop pairing (ablation A in DESIGN.md) so both kinds of operations
    accumulate and are only combined, not eliminated. *)

val handle : 'a t -> 'a handle
(** A per-thread handle; create one per domain. *)

val push : 'a handle -> 'a -> unit Futures.Future.t
val pop : 'a handle -> 'a option Futures.Future.t
(** The future yields [None] when the pop hits an empty shared stack. *)

val flush : 'a handle -> unit
(** Apply all of this handle's pending operations now. *)

val abandon : 'a handle -> int
(** Recovery hook: poison every un-applied future in this handle's
    pending windows with [Future.Orphaned] and drop the windows. For use
    (by any thread) only once the owner is known dead — waiters then
    raise [Broken Orphaned] instead of spinning forever. Returns the
    number of futures poisoned. *)

val pending_count : 'a handle -> int

val shared : 'a t -> 'a Lockfree.Treiber_stack.t
(** The underlying shared instance (benchmarks read its CAS counter and
    tests inspect quiescent contents). *)
