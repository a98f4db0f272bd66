(** Harris's lock-free sorted linked list implementing a set
    (Harris, DISC 2001), with a position-resume extension.

    This is the [unit]-valued view of {!Harris_kv}, the one Harris core:
    the same one-block nodes (a live link {e is} the successor node, a
    deleted node's link is a frozen [Dead succ]), the same field-0 CAS
    and ABA argument, and the same search, so a traversal costs one load
    per hop and allocates nothing per hop. See {!Harris_kv} for the
    layout and why the field-0 cast is sound.

    The {e position} API supports the paper's medium- and weak-FL list
    optimization (§4.3): when successive operations use non-decreasing
    keys, the search can resume from where the previous operation was
    applied rather than from the head, so a whole sorted batch costs a
    single traversal. Positions never compromise safety: a stale position
    (its node was deleted) falls back to the head, and the operations
    re-validate with CAS as usual. *)

module type KEY = Harris_kv.KEY

module Make (K : KEY) : sig
  type t

  val create : unit -> t

  val insert : t -> K.t -> bool
  (** [insert t k] adds [k]; [false] if already present. Lock-free. *)

  val remove : t -> K.t -> bool
  (** [remove t k] logically deletes [k] (then attempts physical unlink);
      [false] if absent. Lock-free. *)

  val contains : t -> K.t -> bool
  (** Wait-free read-only search. *)

  type position
  (** A resumption point strictly below some key. *)

  val head_position : t -> position
  (** The position before the first element. *)

  val insert_from : t -> position -> K.t -> bool * position
  val remove_from : t -> position -> K.t -> bool * position

  val contains_from : t -> position -> K.t -> bool * position
  (** Like the plain operations but starting the search at [position]
      and returning the position just before the affected key. The caller
      must only pass a position obtained for a key [<=] the new key;
      with a stale or unsuitable position the operation falls back to a
      search from the head, so results are always correct. *)

  val is_empty : t -> bool

  val length : t -> int
  (** O(n); exact only in quiescent states. *)

  val to_list : t -> K.t list
  (** Ascending snapshot of the unmarked nodes. *)

  val cas_count : t -> int
  val reset_cas_count : t -> unit
end
