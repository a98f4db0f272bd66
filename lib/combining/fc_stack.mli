(** Flat-combining stack: a sequential stack behind the {!Flat_combining}
    engine. Linearizable; used as an extra baseline in the Figure 4
    benchmark. One handle per domain. *)

type 'a t

val create : unit -> 'a t

type 'a handle

val handle : 'a t -> 'a handle
val push : 'a handle -> 'a -> unit
val pop : 'a handle -> 'a option
val length : 'a t -> int
(** Quiescent snapshot. *)

val to_list : 'a t -> 'a list
(** Top-first; quiescent snapshot. *)

val combiner_passes : 'a t -> int

val combiner_takeovers : 'a t -> int
(** Stalled-combiner lease takeovers (see {!Flat_combining}). *)

val retired_records : 'a t -> int
(** Records retired by the takeover protocol after their owner died
    mid-publish (see {!Flat_combining.retired_records}). *)
