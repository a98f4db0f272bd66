(** Transactional medium-FL linked-list set — the future-work design
    sketched in the paper's discussion (§8).

    The regular medium-FL list ({!Medium_list}) must apply a thread's
    pending operations strictly in invocation order: if it reordered
    "insert 3; insert 2" by key, another thread could observe 2 without 3,
    violating the condition. The paper suggests this "danger could be
    averted, and the operations reordered, if the thread were to lock the
    shared list and apply multiple operations in a kind of atomic
    transaction".

    This module implements that design: the shared list is paired with a
    lock; a flush acquires it, applies the whole pending batch in
    ascending key order — one traversal, at most one physical modification
    per key, with the weak-FL list's own sorted apply ({!Sorted.Set}) —
    and releases. Because the
    batch takes effect atomically, no other thread can observe an
    intermediate state, so the key-order reordering is unobservable and
    medium futures linearizability is preserved: results are computed by
    replaying each key's operations in invocation order, and operations on
    distinct keys commute.

    The trade-off probed by the paper's question ("whether such
    transaction-based approaches are scalable") is measurable with the
    ablation benchmark: traversal sharing like the weak list, but flushes
    serialize on the lock. *)

module Make (K : Lockfree.Harris_list.KEY) : sig
  type t
  type handle

  val create : unit -> t
  val handle : t -> handle

  val insert : handle -> K.t -> bool Futures.Future.t
  val remove : handle -> K.t -> bool Futures.Future.t
  val contains : handle -> K.t -> bool Futures.Future.t

  val flush : handle -> unit
  (** Apply all pending operations as one atomic transaction. *)

  val abandon : handle -> int
  (** Recovery hook: poison every un-applied future in this handle's
      pending windows with [Future.Orphaned] and drop the windows. For use
      (by any thread) only once the owner is known dead — waiters then
      raise [Broken Orphaned] instead of spinning forever. Returns the
      number of futures poisoned. *)

  val pending_count : handle -> int

  val shared : t -> Lockfree.Harris_list.Make(K).t
  (** The underlying list. Reads are safe at quiescence; mutating it
      directly bypasses the transaction lock. *)
end
