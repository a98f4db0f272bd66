(** Treiber's lock-free stack (Treiber 1986), extended with single-CAS
    multi-node push and pop.

    The multi-node operations are the combining primitive of the weak- and
    medium-FL stacks (Kogan & Herlihy §4): a chain of nodes is prepared
    locally, its last node is linked to the current top, and one CAS swings
    the top pointer; symmetrically, [pop_many] removes a whole prefix with
    one CAS. All operations are lock-free and linearizable.

    An uncontended call allocates only what it hands over: [push] and
    [push_seg] the nodes and their links, [pop] the result option,
    [pop_seg] nothing. A backoff is made only after a CAS has failed.

    {b Node layout.} A node is a record whose [next] is an ['a node
    option], so a link costs a 2-word [Some] beside the 3-word node. The
    one-block layout the Michael–Scott queue uses (the successor stored
    directly, CASed as field 0) was measured here too and slowed the
    slack-1 stack benchmark's p50 latency beyond its bound, so the
    record-plus-option layout is kept. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a option
(** [pop t] removes and returns the top element, or [None] when empty. *)

val peek : 'a t -> 'a option

val push_list : 'a t -> 'a list -> unit
(** [push_list t [x1; ...; xn]] atomically pushes the whole chain with a
    single successful CAS; [x1] is pushed first, so [xn] ends on top.
    [push_list t []] is a no-op. *)

val pop_many : 'a t -> int -> 'a list
(** [pop_many t n] atomically (one successful CAS) removes up to [n]
    elements and returns them top-first; fewer when the stack runs out.
    Raises [Invalid_argument] if [n < 0]. *)

val push_seg : 'a t -> n:int -> get:(int -> 'a) -> unit
(** [push_seg t ~n ~get] is [push_list] over the indexed segment
    [get 0 .. get (n-1)]: [get 0] is pushed deepest, [get (n-1)] ends on
    top, one successful CAS for the whole segment. Allocates only the
    [n] spliced nodes — the zero-copy path for ring-buffer flushes.
    Raises [Invalid_argument] if [n < 0]. *)

val pop_seg : 'a t -> n:int -> f:(int -> 'a -> unit) -> int
(** [pop_seg t ~n ~f] is [pop_many] without the result list: up to [n]
    elements are removed with one successful CAS and handed to [f i v]
    in top-first order (i = 0 for the old top). Returns the number
    actually popped. [f] runs after the CAS, on a detached chain.
    Raises [Invalid_argument] if [n < 0]. *)

val is_empty : 'a t -> bool

val length : 'a t -> int
(** O(n) snapshot; exact only in quiescent states. *)

val to_list : 'a t -> 'a list
(** Top-first snapshot of one consistent head reading. *)

val cas_count : 'a t -> int
(** Total CAS attempts issued against this stack (see {!Sync.Cas_counter}). *)

val reset_cas_count : 'a t -> unit
