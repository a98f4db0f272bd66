(** Michael & Scott's lock-free FIFO queue (PODC 1996), extended with
    combining-friendly batch operations.

    [enqueue_list] splices a locally built chain after the current last
    node with one successful CAS (plus one CAS to swing the tail), and
    [dequeue_many] advances the head pointer over up to [n] nodes with one
    successful CAS — the two-CAS insertion / one-CAS removal primitive the
    weak- and medium-FL queues rely on (Kogan & Herlihy §4.2).

    The queue tolerates a lagging tail: any operation that passes the tail
    helps swing it forward first, so the standard invariants hold.

    {b Layout.} Each node is one heap block,
    [Node { mutable next; mutable value }] (3 words), and a link is [Nil]
    or the successor node itself, so a hop is one load. [next] is read
    and CASed with [Atomic.get]/[Atomic.compare_and_set] on the node cast
    to [node Atomic.t] — the field-0 idiom of {!Harris_kv} (see
    [harris_kv.mli]). It is sound because an ['a Atomic.t] is a one-field
    tag-0 block and the atomic primitives touch only field 0: [next] is
    field 0; it is [mutable], so the compiler never shares, lifts or
    caches the block; it is never read or written except through the
    cast; and [Node] is the first non-constant constructor, so its block
    has tag 0 and is scanned by the GC. The value is stored unboxed; once
    a node is dequeued its value is overwritten with a private sentinel
    block, so the node left behind as the new dummy pins nothing.
    Dequeues read values only after their head CAS, and [peek] and
    [to_list] retry or skip past the sentinel, so it is never returned,
    even to a reader racing a dequeue. *)

type 'a t

val create : unit -> 'a t

val enqueue : 'a t -> 'a -> unit

val dequeue : 'a t -> 'a option
(** [dequeue t] removes and returns the oldest element, or [None]. *)

val peek : 'a t -> 'a option

val enqueue_list : 'a t -> 'a list -> unit
(** [enqueue_list t [x1; ...; xn]] atomically appends the whole chain;
    [x1] becomes the oldest of the new elements. No-op on []. *)

val dequeue_many : 'a t -> int -> 'a list
(** [dequeue_many t n] atomically removes up to [n] elements, returned
    oldest-first; fewer when the queue runs out.
    Raises [Invalid_argument] if [n < 0]. *)

val enqueue_seg : 'a t -> n:int -> get:(int -> 'a) -> unit
(** [enqueue_seg t ~n ~get] is [enqueue_list] over the indexed segment
    [get 0 .. get (n-1)] ([get 0] becomes the oldest); allocates only
    the [n] spliced nodes — the zero-copy path for ring-buffer flushes.
    Raises [Invalid_argument] if [n < 0]. *)

val dequeue_seg : 'a t -> n:int -> f:(int -> 'a -> unit) -> int
(** [dequeue_seg t ~n ~f] is [dequeue_many] without the result list: up
    to [n] elements are removed with one successful head CAS and handed
    to [f i v] oldest-first (i = 0). Returns the count actually
    dequeued. [f] runs after the CAS, on a detached chain.
    Raises [Invalid_argument] if [n < 0]. *)

val is_empty : 'a t -> bool

val length : 'a t -> int
(** O(n) snapshot; exact only in quiescent states. *)

val to_list : 'a t -> 'a list
(** Oldest-first snapshot; consistent only in quiescent states. *)

val cas_count : 'a t -> int
(** Total CAS attempts issued against this queue. *)

val reset_cas_count : 'a t -> unit
