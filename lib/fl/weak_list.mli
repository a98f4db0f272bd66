(** Weak-FL linked-list set (Kogan & Herlihy §4.3).

    Forcing any future sorts the thread's pending window {e by key} and
    traverses the shared Harris list once, in ascending key order,
    applying every pending operation ({!Sorted.Set}, shared with
    {!Txn_list}). Multiple pending operations on the same key are
    {e combined}: their results are computed by running the key's
    operation sequence against the presence observed at the (single)
    linearization instant, and at most one physical modification per key
    reaches the shared list — a legal weak-FL behaviour because every one
    of those operations is still pending.

    The single traversal is realized with the Harris list's position API:
    because keys are visited in ascending order, each search resumes from
    the previous operation's position. *)

module Make (K : Lockfree.Harris_list.KEY) : sig
  type t
  type handle

  val create : unit -> t
  val handle : t -> handle

  val insert : handle -> K.t -> bool Futures.Future.t
  (** Future yields [true] iff the insert changed the set. *)

  val remove : handle -> K.t -> bool Futures.Future.t
  (** Future yields [true] iff the key was present. *)

  val contains : handle -> K.t -> bool Futures.Future.t

  val flush : handle -> unit
  val abandon : handle -> int
  (** Recovery hook: poison every un-applied future in this handle's
      pending windows with [Future.Orphaned] and drop the windows. For use
      (by any thread) only once the owner is known dead — waiters then
      raise [Broken Orphaned] instead of spinning forever. Returns the
      number of futures poisoned. *)

  val pending_count : handle -> int
  val shared : t -> Lockfree.Harris_list.Make(K).t
end
