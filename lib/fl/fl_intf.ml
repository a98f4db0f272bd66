(** Shared signatures of the handle-based (weak/medium) futures
    structures.

    The weak and medium implementations of each data type expose the same
    interface; these module types state that fact once, and the test
    suite contains compile-time ascriptions ([module _ : ... = ...])
    keeping the implementations in sync with them. (The strong-FL
    versions differ: they are handle-free, since their per-invocation
    state is the shared pending queue.)

    [abandon] is the recovery hook: called (by any thread) when the
    handle's owner is known to be dead, it poisons every un-applied
    future with [Future.Orphaned] and empties the pending windows
    ({!Window.abandon}), returning how many were poisoned, so waiters
    raise [Broken] instead of spinning on an op that will never be
    applied. *)

module type HANDLE_STACK = sig
  type 'a t

  type 'a handle

  val handle : 'a t -> 'a handle
  val push : 'a handle -> 'a -> unit Futures.Future.t
  val pop : 'a handle -> 'a option Futures.Future.t
  val flush : 'a handle -> unit
  val abandon : 'a handle -> int
  val pending_count : 'a handle -> int
  val shared : 'a t -> 'a Lockfree.Treiber_stack.t
end

module type HANDLE_QUEUE = sig
  type 'a t

  type 'a handle

  val handle : 'a t -> 'a handle
  val enqueue : 'a handle -> 'a -> unit Futures.Future.t
  val dequeue : 'a handle -> 'a option Futures.Future.t
  val flush : 'a handle -> unit
  val abandon : 'a handle -> int
  val pending_count : 'a handle -> int
  val shared : 'a t -> 'a Lockfree.Ms_queue.t
end

module type HANDLE_SET = sig
  module Key : sig
    type t
  end

  type t

  type handle

  val handle : t -> handle
  val insert : handle -> Key.t -> bool Futures.Future.t
  val remove : handle -> Key.t -> bool Futures.Future.t
  val contains : handle -> Key.t -> bool Futures.Future.t
  val flush : handle -> unit
  val abandon : handle -> int
  val pending_count : handle -> int
end
