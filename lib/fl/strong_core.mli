(** The strong-FL evaluation engine, shared by the strong stack, queue and
    list (Kogan & Herlihy §4).

    Strong futures linearizability requires every operation to appear to
    take effect between its invocation and the moment its future is
    returned. The paper's construction achieves this with (1) a shared
    lock-free queue of pending operation descriptors, whose FIFO order
    fixes the linearization order at invocation time, and (2) a lock that
    serializes {e evaluation}: the lock holder drains a bounded prefix of
    the queue, applies it — with type-specific optimizations — to a
    sequential instance of the data structure, and fulfils the futures.

    This module packages the queue + lock + drain protocol; each structure
    supplies only [apply_batch]. *)

type 'a t
(** An engine whose pending operations have type ['a]. *)

val create : apply_batch:('a list -> unit) -> 'a t
(** [apply_batch ops] is called with the drained prefix, oldest first,
    while the evaluation lock is held; it must apply the operations to the
    sequential instance and fulfil every future they carry. *)

val submit : 'a t -> 'a -> unit
(** Lock-free: record a pending operation. Called at invocation time,
    before returning the operation's future. *)

val eval : 'a t -> is_ready:(unit -> bool) -> unit
(** The evaluation protocol for forcing one future: spin for the lock
    while periodically checking [is_ready] (another evaluator may fulfil
    our future first); once acquired, if the future is still pending,
    drain and apply the current batch — which necessarily contains our
    operation — then release. Postcondition: [is_ready ()] is true. *)

val eval_future : 'a t -> 'b Futures.Future.t -> unit
(** [eval] until the given future is ready: the evaluator every strong
    object builds once and shares between all of its futures. *)

val drain_now : 'a t -> unit
(** Acquire the lock unconditionally and evaluate everything currently
    pending. Used to settle an object at a quiescent point. *)

val pending_cas_count : 'a t -> int
(** CAS attempts on the shared pending queue (diagnostics). *)
