(** Uniform, first-class view of every implementation in the evaluation
    (§5): the lock-free baselines and the weak/medium/strong-FL versions
    of each data type, over [int] elements/keys.

    The benchmark harness and the integration tests iterate over these
    records so that every experiment runs the exact same workload against
    every implementation. Baselines return already-fulfilled futures
    ("non-future return values can be treated as futures that are
    evaluated immediately", §4).

    Per-thread protocol: call [*_handle] once in each domain, use the
    returned operations record there, and call its [flush] before the
    domain finishes so no futures are left pending. [*_drain] settles
    whole-structure state (strong-FL pending queues) at quiescence.

    [*_abandon] is the recovery hook ({!Fl_intf}): when the handle's
    owner dies, it poisons every un-applied future with
    [Future.Orphaned] and returns the count. Handle-free implementations
    (baselines and strong-FL, whose pending state is shared and settled
    by [drain]) report 0. *)

type stack_ops = {
  s_push : int -> unit Futures.Future.t;
  s_pop : unit -> int option Futures.Future.t;
  s_flush : unit -> unit;
  s_abandon : unit -> int;
}

type stack_instance = {
  s_handle : unit -> stack_ops;
  s_drain : unit -> unit;
  s_cas_count : unit -> int;
  s_contents : unit -> int list;  (** top-first; quiescent + drained *)
}

type stack_impl = { s_name : string; s_make : unit -> stack_instance }

val stack_impls : stack_impl list
(** [lockfree; elim; flatcomb; weak; medium; strong] — [elim] is the
    elimination-backoff stack (the paper's reference [8]) and [flatcomb]
    the flat-combining baseline (its §7 comparison point). *)

type queue_ops = {
  q_enq : int -> unit Futures.Future.t;
  q_deq : unit -> int option Futures.Future.t;
  q_flush : unit -> unit;
  q_abandon : unit -> int;
}

type queue_instance = {
  q_handle : unit -> queue_ops;
  q_drain : unit -> unit;
  q_cas_count : unit -> int;
  q_contents : unit -> int list;  (** oldest-first *)
}

type queue_impl = { q_name : string; q_make : unit -> queue_instance }

val queue_impls : queue_impl list

type set_ops = {
  l_insert : int -> bool Futures.Future.t;
  l_remove : int -> bool Futures.Future.t;
  l_contains : int -> bool Futures.Future.t;
  l_flush : unit -> unit;
  l_abandon : unit -> int;
}

type set_instance = {
  l_handle : unit -> set_ops;
  l_drain : unit -> unit;
  l_cas_count : unit -> int;
  l_contents : unit -> int list;  (** ascending *)
}

type set_impl = { l_name : string; l_make : unit -> set_instance }

val set_impls : set_impl list
(** [lockfree; flatcomb; weak; medium; strong; txn] — [txn] is the
    transactional medium-FL list of {!Txn_list}, the paper's §8
    future-work design. *)

val find_stack : string -> stack_impl
val find_queue : string -> queue_impl

val find_set : string -> set_impl
(** Lookup by name. Raises [Not_found]. *)

(** Ablation variants (DESIGN.md ablations A–C): the same wrappers with an
    optimization disabled, for the ablation benchmarks. *)

val weak_stack_with : elimination:bool -> unit -> stack_instance
val medium_set_with : resume_hint:bool -> set_instance
val strong_set_with : sort_batch:bool -> set_instance
