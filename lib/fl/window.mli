(** The pending window every weak/medium FL handle is built on.

    A handle's pending ops wait in a private window until one of its
    futures is forced; the evaluator then applies the window with the
    type's combining or elimination step. Only that apply step differs
    between handles. The rest is here: invocation, detaching the window
    before any future is fulfilled, withdrawing ops that are no longer
    pending, and poisoning a dead owner's window.

    A window is an op ring plus an index-aligned value ring ([unit] and
    unused where the op carries everything), each with a scratch twin.
    [pending] and [poison] are given at {!create}. A window is owned by
    one thread; only {!abandon} may run on another, once the owner is
    dead. *)

type ('op, 'v) t

val create :
  pending:('op -> bool) -> poison:('op -> bool) -> unit -> ('op, 'v) t

val of_futures : unit -> ('a Futures.Future.t, 'v) t
(** Ops that are the futures themselves (values, if any, in the value
    ring): an op then allocates nothing beyond its future. *)

val orphan : 'a Futures.Future.t -> bool
(** Poison with [Future.Orphaned]; the building block of every [poison]. *)

val future : ('a Futures.Future.t -> unit) -> 'a Futures.Future.t
(** A fresh future with evaluator [eval], for ops built around it.
    [eval] is the handle's own, built once with the handle: every op
    shares it, so an op allocates only its future. *)

val add :
  ('a Futures.Future.t, unit) t ->
  ('a Futures.Future.t -> unit) ->
  'a Futures.Future.t
(** Append and return a fresh future with evaluator [eval]. *)

val add_with :
  ('a Futures.Future.t, 'v) t ->
  ('a Futures.Future.t -> unit) ->
  'v ->
  'a Futures.Future.t
(** {!add}, appending [v] to the value ring too. *)

val push : ('op, unit) t -> 'op -> unit
val length : ('op, 'v) t -> int

val ops : ('op, 'v) t -> 'op Opbuf.t
val vals : ('op, 'v) t -> 'v Opbuf.t
(** The live rings, oldest first, for in-place apply steps. *)

val detach : ('op, 'v) t -> int
(** Swap the live rings into the scratch rings, so ops issued while the
    detached window is fulfilled land in a fresh one; withdraw; return
    the number of ops left in {!work}. *)

val work : ('op, 'v) t -> 'op Opbuf.t
val work_vals : ('op, 'v) t -> 'v Opbuf.t

val release : ('op, 'v) t -> unit
(** Empty the scratch rings once the detached window is applied. *)

val withdraw : ('op, 'v) t -> int
(** Withdraw non-pending ops from the live rings in place; return the
    new length. *)

val withdraw_ring : pending:('op -> bool) -> 'op Opbuf.t -> int
(** {!withdraw} on a plain ring. *)

val abandon : ('op, 'v) t -> int
(** Poison every op in the live and scratch rings, empty all four, and
    return how many futures were poisoned. *)

val poison_ring : poison:('op -> bool) -> 'op Opbuf.t -> int
(** {!abandon} on a plain ring. *)
