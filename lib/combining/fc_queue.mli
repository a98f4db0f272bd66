(** Flat-combining FIFO queue: a sequential queue behind the
    {!Flat_combining} engine. Linearizable; extra baseline for the
    Figure 5 benchmark. One handle per domain. *)

type 'a t

val create : unit -> 'a t

type 'a handle

val handle : 'a t -> 'a handle
val enqueue : 'a handle -> 'a -> unit
val dequeue : 'a handle -> 'a option
val length : 'a t -> int

val to_list : 'a t -> 'a list
(** Oldest-first; quiescent snapshot. *)

val combiner_passes : 'a t -> int

val combiner_takeovers : 'a t -> int
(** Stalled-combiner lease takeovers (see {!Flat_combining}). *)

val retired_records : 'a t -> int
(** Records retired by the takeover protocol after their owner died
    mid-publish (see {!Flat_combining.retired_records}). *)
