(** Weak-FL map (extension).

    The paper's §2 motivates futures with map operations ("binding a key
    to a value", "the result of a map look-up") but evaluates only
    list-based sets; this module carries the weak-FL list design over to
    a key/value map on the {!Lockfree.Harris_kv} substrate.

    Bindings are bind-once: [insert] on a present key leaves the existing
    binding (and its future yields [false]); replace = remove + insert.

    Pending operations wait in invocation order; forcing any future
    stable-sorts the window by key and flushes it in one ascending
    traversal of the shared list, oldest-first per key ({!Sorted.Map},
    shared with {!Shard_map}). Each operation pays its own physical list
    operation, but the search resumes from the previous position — the
    combining that makes bulk lookups and loads cheap. *)

module Make (K : Lockfree.Harris_list.KEY) : sig
  type 'v t
  type 'v handle

  val create : unit -> 'v t
  val handle : 'v t -> 'v handle

  val insert : 'v handle -> K.t -> 'v -> bool Futures.Future.t
  (** Future yields [true] iff the binding was created. *)

  val find : 'v handle -> K.t -> 'v option Futures.Future.t

  val remove : 'v handle -> K.t -> 'v option Futures.Future.t
  (** Future yields the removed value. *)

  val flush : 'v handle -> unit
  val pending_count : 'v handle -> int

  val abandon : 'v handle -> int
  (** Poison every pending future with [Future.Orphaned] and empty the
      window; returns the number poisoned. The recovery hook for a dead
      owner's handle (see {!Workload}'s abandon machinery): orphaned
      operations fail fast instead of hanging their waiters, and the
      shared list is untouched — un-applied operations are lost, never
      half-applied. *)

  val shared : 'v t -> 'v Lockfree.Harris_kv.Make(K).t
end
