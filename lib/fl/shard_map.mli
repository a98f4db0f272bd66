(** Sharded bind-once FL map with bucket ownership transfer.

    The fault-tolerant, sharded counterpart of {!Weak_map}: keys hash to
    [buckets] buckets, each a {!Lockfree.Harris_kv} segment guarded by an
    epoch-numbered lease ({!Bucket}). A handle's operations accumulate in
    per-bucket {!Opbuf} pending windows and return futures; a flush
    applies each window in one sorted position-resumed traversal of the
    bucket's segment — but only while holding that bucket's lease, which
    it takes for that one apply and hands straight back
    ({!Bucket.try_release}).

    {b Cross-shard operations} meet a held lease only while another
    handle applies, and route through the transfer protocol: request,
    bounded-wait grant ({!Sync.Mono} deadlines, exponential backoff on
    retry), seal-and-ship of the holder's un-applied pending window, ack.
    The holder looks for a request right after taking the lease (fault
    point [shard.apply]), shipping its whole window, and again at
    release, shipping what is left. No handle waits while holding a
    lease, so the waits never need to grant. While a bucket is in flight
    it is in {e degraded read-only mode}: pending [find]s (on keys with
    no earlier pending mutation in the same window) are answered
    directly against the segment — a legal weak-FL linearization — and
    mutations wait.

    {b Crash recovery.} A dead owner stops renewing, its leases expire,
    and any handle recovers its buckets ({!Bucket.try_recover}) —
    including buckets mid-transfer: a window caught in flight is
    returned to the recoverer, which applies it under the lease it just
    took — the recover/ack CAS hands the package to exactly one taker,
    so a receiver that is merely late never loses an op and no op is
    applied twice. A dead handle's
    un-shipped windows are poisoned by {!abandon} (the runner's
    abandon/orphan machinery). Fault points [shard.grant], [shard.ship]
    and [shard.ack] fire before the corresponding protocol CAS, and
    [shard.apply] while a lease is held before its window is applied, so
    chaos can kill either endpoint at every step and the survivor
    recovers by deadline.

    Refinement: transfers move only {e ownership}; the segments and the
    pending windows are untouched, so every transfer is a no-op against
    the centralized map spec — checked by [Conformance.check_shard_map]. *)

module type KEY = sig
  type t

  val compare : t -> t -> int

  val hash : t -> int
  (** Only [hash k land max_int] is used; equal keys must hash equal. *)
end

module Make (K : KEY) : sig
  type 'v t
  type 'v handle

  val create :
    ?buckets:int -> ?lease:float -> ?grant_timeout:float -> unit -> 'v t
  (** [buckets] (default 8) segments; [lease] (default 0.05 s) is both
      the ownership lease and the transfer deadline — the bound on every
      wait in the protocol; [grant_timeout] (default 0.002 s) is the
      initial patience for a grant, doubled on each retry. Raises
      [Invalid_argument] on non-positive arguments. *)

  val handle : 'v t -> 'v handle
  (** A per-thread handle with its own pending windows and a unique
      lease-owner identity. Handles must not be shared between
      domains. *)

  val insert : 'v handle -> K.t -> 'v -> bool Futures.Future.t
  (** Bind-once: the future resolves [true] iff this op created the
      binding. *)

  val find : 'v handle -> K.t -> 'v option Futures.Future.t
  val remove : 'v handle -> K.t -> 'v option Futures.Future.t

  val flush : 'v handle -> unit
  (** Apply every pending window, each under its bucket's lease taken
      for that apply (or shipped to a handle that requested the bucket
      meanwhile). The handle holds no lease once [flush] returns.
      Futures shipped to another handle are settled by waiting for the
      receiver (or recovering it by deadline), so after [flush] returns,
      forcing any previously pending future of this handle cannot
      hang. *)

  val abandon : 'v handle -> int
  (** Poison every un-applied future in the handle's windows
      ([Future.Orphaned]) and empty them; returns the number poisoned.
      The owner-death recovery hook ({!Workload} runner abandon
      machinery). A lease held by a handle that died mid-flush is left
      to expire and be recovered by survivors. *)

  val recover_all : 'v handle -> int
  (** One recovery sweep: usurp every bucket whose deadline expired,
      applying windows caught in flight, and release it again; returns
      the ops applied out of those windows. Call
      in a loop (leases must first expire) to drain a torn-down map —
      {!in_flight} reaching 0 is the fixpoint. *)

  val pending_count : 'v handle -> int
  (** Live (un-applied, un-cancelled) ops across the handle's windows. *)

  val buckets : 'v t -> int

  val in_flight : 'v t -> int
  (** Buckets currently in a transfer state (requested/granted/shipped). *)

  val get : 'v t -> K.t -> 'v option
  (** Direct wait-free lookup, bypassing windows (drain/oracle use). *)

  val size : 'v t -> int

  val bindings : 'v t -> (K.t * 'v) list
  (** Ascending by key; quiescent snapshot. *)

  type stats = {
    requests : int;  (** transfer requests issued *)
    grants : int;  (** requests granted by owners *)
    ships : int;  (** sealed windows shipped *)
    acks : int;  (** transfers completed by the requester *)
    recovers : int;  (** expired buckets usurped *)
    retries : int;  (** grant waits that timed out and backed off *)
    degraded_finds : int;  (** finds served read-only while in flight *)
    poisoned : int;
        (** futures poisoned out of lost or interrupted windows *)
  }

  val stats : 'v t -> stats
end
