(** Flat-combining sorted-list set: a sequential sorted linked list behind
    the {!Flat_combining} engine. Linearizable; extra baseline for the
    Figure 6 benchmark. One handle per domain. *)

module Make (K : Seqds.Seq_list.KEY) : sig
  type t

  val create : unit -> t

  type handle

  val handle : t -> handle
  val insert : handle -> K.t -> bool
  val remove : handle -> K.t -> bool
  val contains : handle -> K.t -> bool
  val length : t -> int

  val to_list : t -> K.t list
  (** Ascending; quiescent snapshot. *)

  val combiner_passes : t -> int

  val combiner_takeovers : t -> int
  (** Stalled-combiner lease takeovers (see {!Flat_combining}). *)
end
