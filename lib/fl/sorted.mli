(** The sorted-window applies: one per semantics, each shared by two
    handles. Both stable-sort a withdrawn window by key, so each key's ops
    stay in invocation order and keys are visited in ascending order, and
    resolve it in one traversal of the shared Harris list, each search
    resuming from the previous position. *)

(** Sets: {!Weak_list}, and {!Txn_list} under its lock. Each key's group
    costs one physical op, its net effect (its last insert or remove, or
    a probe); the group is replayed in invocation order from the presence
    that op observed. Every op of the window must be pending. *)
module Set (K : Lockfree.Harris_list.KEY) : sig
  type kind = Insert | Remove | Contains
  type op = { key : K.t; kind : kind; future : bool Futures.Future.t }

  val pending : op -> bool
  val poison : op -> bool
  val apply : Lockfree.Harris_list.Make(K).t -> op Opbuf.t -> unit
end

(** Maps: {!Weak_map} and each {!Shard_map} bucket. Every op pays its own
    position-resumed physical op, so results always reflect the shared
    list. Ops no longer pending are skipped and fulfilment is
    [try_fulfil], as a shipped window may race its issuer's abandon.
    Returns the number of ops applied. *)
module Map (K : Lockfree.Harris_kv.KEY) : sig
  type 'v op =
    | Insert of K.t * 'v * bool Futures.Future.t
    | Find of K.t * 'v option Futures.Future.t
    | Remove of K.t * 'v option Futures.Future.t

  val key : 'v op -> K.t
  val pending : 'v op -> bool
  val poison : 'v op -> bool
  val apply : 'v Lockfree.Harris_kv.Make(K).t -> 'v op Opbuf.t -> int
end
