(** Epoch-numbered bucket ownership for the sharded FL map.

    A bucket is the unit of ownership transfer in {!Shard_map}: keys hash
    to buckets, and at any moment at most one handle holds a bucket's
    {e lease} and may apply pending windows to its key-value segment. The
    whole ownership/transfer state lives in a {e single CAS word} (one
    {!Sync.Padded.atomic}), so every protocol step — acquire, renew,
    release, request, grant, ship, ack, recover — is one compare-and-set
    and the state machine can never be observed mid-transition.

    A lease is {e transient}: {!Shard_map} takes it ({!try_acquire},
    {!try_ack} or {!try_recover}) only to apply one window and hands it
    straight back ({!try_release}), so an uncontended bucket costs one
    CAS to take and one to give back.

    Leases are {e epoch-numbered} and {e deadline-bounded}
    ({!Sync.Mono}): the epoch increments on every change of ownership
    (acquire from [Free], release, ack, recover), so a handle that lost
    its lease can never mistake a successor's state for its own; the
    deadline makes a dead owner's bucket recoverable — once [until]
    passes, {e any} handle may usurp via {!try_recover}, and a window
    caught in flight (a [Shipped] package nobody acked in time) is
    returned to the recoverer so it is applied rather than silently
    dropped.

    Transfer protocol, the path for a request made while [A] holds the
    lease (requester [B], owner [A]):
    + [B]: {!try_request} — [Owned A → Requested A→B]; [B] then waits,
      bounded by [A]'s lease deadline;
    + [A]: {!try_grant} — [Requested → Granted], stamping a transfer
      deadline;
    + [A]: {!try_ship} — [Granted → Shipped pkg], publishing the sealed
      pending window;
    + [B]: {!try_ack} — [Shipped → Owned B] (epoch+1), taking the
      package.

    This module is the pure state machine: fault injection
    ([shard.apply]/[shard.grant]/[shard.ship]/[shard.ack]) and
    observability events are emitted by {!Shard_map} at the call sites,
    so a kill at a protocol point always lands {e between} CAS
    transitions, never inside one. *)

type 'pkg state =
  | Free of int  (** unowned; the int is the epoch the next owner takes *)
  | Owned of { owner : int; epoch : int; until : float }
      (** [owner] holds the lease until [until] (monotonic seconds). *)
  | Requested of { owner : int; epoch : int; until : float; to_ : int }
      (** [to_] asked for the bucket; [owner]'s lease keeps its original
          deadline, so an owner that never grants is recoverable. *)
  | Granted of { from_ : int; to_ : int; epoch : int; until : float }
      (** transfer accepted; [until] is the transfer deadline. *)
  | Shipped of { from_ : int; to_ : int; epoch : int; until : float; pkg : 'pkg }
      (** the sealed pending window is in flight; [to_] must ack before
          [until] or the package is recoverable (and the recoverer
          applies it). *)

type 'pkg t

val create : id:int -> 'pkg t
(** A fresh bucket in [Free 0], its state word alone on a cache line. *)

val id : _ t -> int
val state : 'pkg t -> 'pkg state

val epoch : _ state -> int
(** The epoch carried by any state. *)

val expired : now:float -> _ state -> bool
(** Whether the state's deadline has passed ([Free] never expires). *)

val in_flight : _ state -> bool
(** [Requested | Granted | Shipped] — a transfer is in progress and the
    bucket is in degraded (read-only) mode. *)

val try_acquire : _ t -> me:int -> lease:float -> bool
(** [Free e → Owned {me; e; now+lease}]. *)

val try_renew : _ t -> me:int -> lease:float -> bool
(** Extend my lease; fails unless the state is [Owned] by [me] (an owner
    with a pending request must grant, not renew). *)

val try_release : _ t -> me:int -> bool
(** [Owned {me; e} → Free (e+1)]. Fails if the state is not [Owned] by
    [me]; after a [Requested], the holder grants and ships instead. *)

val try_request : _ t -> me:int -> bool
(** [Owned other → Requested other→me]. Fails if the bucket is free,
    mine, or already in flight. *)

val try_grant : _ t -> me:int -> timeout:float -> bool
(** [Requested me→B → Granted me→B] with transfer deadline
    [now+timeout]. *)

val try_ship : 'pkg t -> me:int -> pkg:'pkg -> bool
(** [Granted me→B → Shipped me→B pkg]. On failure the caller keeps the
    window (the transfer expired under it and someone recovered). *)

val try_ack : 'pkg t -> me:int -> lease:float -> 'pkg option
(** [Shipped A→me → Owned {me; epoch+1; now+lease}]; returns the shipped
    package exactly once (the CAS decides the unique taker between an
    acker and a recoverer). *)

type 'pkg recovery = { lost : 'pkg option }
(** [lost] is the in-flight package of a recovered [Shipped] bucket —
    the un-applied window, which the recoverer now applies in the
    receiver's place. *)

val try_recover : 'pkg t -> me:int -> lease:float -> 'pkg recovery option
(** Usurp any {e expired} state: [→ Owned {me; epoch+1; now+lease}].
    [None] if the state is live or the CAS lost. *)
