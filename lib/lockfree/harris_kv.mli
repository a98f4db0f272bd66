(** Harris's lock-free sorted linked list (Harris, DISC 2001) storing
    key/value bindings, with a position-resume extension. This is the one
    Harris core: {!Harris_list} is its [unit]-valued view.

    The paper motivates future-returning operations with maps — "binding
    a key to a value", "the result of a map look-up" (§2) — but only
    evaluates sets; this module is also the map substrate for the
    {!Fl.Weak_map} extension. Bindings are {e bind-once}: an insert on a
    present key does not replace the value (a live node's value is
    immutable; replace = remove + insert, two operations).

    {b Layout.} Each node is one heap block,
    [Node { mutable next; key; value }], where a link is [Nil], a [Node],
    or [Dead succ]. A live link {e is} the successor node, so a traversal
    hop is one load. Deletion is two-phase: a node is first logically
    deleted by CASing its link from [succ] to a fresh [Dead succ], then
    physically unlinked by any traversal that meets it. A [Dead] link is
    never CASed again, so chains out of deleted nodes always lead forward
    into the live list.

    {b Field 0 as an atomic.} OCaml 5.1 has no atomic record fields, so
    [next] is read and CASed with [Atomic.get]/[Atomic.compare_and_set]
    on the node block cast to [link Atomic.t] — the field-0 idiom of
    [multicore-magic], also used by {!Sync.Padded}. It is sound because an
    ['a Atomic.t] is a one-field tag-0 block whose field 0 is the value,
    and the atomic primitives touch only field 0 (the CAS runs the write
    barrier on field 0 of whatever block it is given). The conditions:
    [next] is field 0; it is [mutable], so the compiler never shares,
    lifts or caches the block; it is never read or written except through
    the cast; and [Node] is the first non-constant constructor, so its
    block has tag 0 and is scanned by the GC.

    {b No ABA.} CAS compares node pointers, as in C Harris. A link may go
    [m -> x -> m] (insert [x], then remove and unlink it), and a CAS
    expecting [m] then succeeds — correctly, since the cell is live and
    its successor really is [m] again. What makes ABA unsafe in C is node
    reuse; here the GC never frees a node while any thread can reach it,
    nodes are never recycled, and a marked link never changes again, so
    a CAS on a cell that was deleted in between always fails.

    {b Positions.} A position is the cell (the head, or a node's [next])
    that led to the last key handled, so resuming costs nothing and a
    traversal allocates nothing per hop. When successive operations use
    non-decreasing keys, the search resumes there rather than from the
    head, so a whole sorted batch costs a single traversal (the paper's
    medium- and weak-FL list optimization, §4.3). Positions never
    compromise safety: a stale position (its node was deleted) falls
    back to the head, and operations re-validate with CAS as usual. *)

module type KEY = sig
  type t

  val compare : t -> t -> int
end

module Make (K : KEY) : sig
  type 'v t

  val create : unit -> 'v t

  val insert : 'v t -> K.t -> 'v -> bool
  (** [insert t k v] binds [k] to [v] if absent; [false] (and no change)
      if [k] is already bound. Lock-free. *)

  val find : 'v t -> K.t -> 'v option
  (** Wait-free lookup. *)

  val remove : 'v t -> K.t -> 'v option
  (** [remove t k] deletes the binding, returning its value. Lock-free. *)

  type 'v position
  (** A resumption point strictly below some key. *)

  val head_position : 'v t -> 'v position
  (** The position before the first binding. *)

  val insert_from : 'v t -> 'v position -> K.t -> 'v -> bool * 'v position
  val find_from : 'v t -> 'v position -> K.t -> 'v option * 'v position

  val remove_from : 'v t -> 'v position -> K.t -> 'v option * 'v position
  (** Like the plain operations but starting the search at [position]
      and returning the position just before the affected key. The
      caller must only pass a position obtained for a key [<=] the new
      key; with a stale position the operation falls back to a search
      from the head, so results are always correct. *)

  val is_empty : 'v t -> bool

  val size : 'v t -> int
  (** O(n); exact only in quiescent states. *)

  val bindings : 'v t -> (K.t * 'v) list
  (** Ascending by key; quiescent snapshot. *)

  val cas_count : 'v t -> int
  val reset_cas_count : 'v t -> unit
end
