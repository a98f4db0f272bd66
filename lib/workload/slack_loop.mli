(** The closed-loop slack-window workload: the paper's §5 measurement
    loop over any registry implementation.

    Each worker draws an operation, invokes it on its own handle, and
    notes the force of the returned future in an {!Fl.Slack} window (the
    window forces everything once [slack] futures are outstanding); at
    the end it drains the window and flushes the handle. {!measure} runs
    that worker under {!Runner.run} on a fresh instance per repeat. *)

type 'i t = {
  name : string;
  make : unit -> 'i;  (** a fresh (prefilled, for sets) instance *)
  handle : 'i -> Rng.t -> (unit -> unit -> unit) * (unit -> unit);
      (** a new handle as [(step, flush)]: [step ()] draws and invokes
          one operation and returns the thunk forcing its future *)
  cas_count : 'i -> int;
  drain : 'i -> unit;
}

val stack : Fl.Registry.stack_impl -> Fl.Registry.stack_instance t
(** 50% push / 50% pop ({!Distribution.stack_op}). *)

val queue : Fl.Registry.queue_impl -> Fl.Registry.queue_instance t
(** 50% enq / 50% deq ({!Distribution.queue_op}). *)

val asymmetric_queue : Fl.Registry.queue_impl -> Fl.Registry.queue_instance t
(** 80% enq / 20% deq: long same-type runs, the best case for run
    combining. *)

val set : Fl.Registry.set_impl -> Fl.Registry.set_instance t
(** 20/20/60 insert/remove/contains over the paper's 10K key range
    ({!Distribution.list_op}), on a {!prefill_set} instance. *)

val zipf_set : Fl.Registry.set_impl -> Fl.Registry.set_instance t
(** The {!set} mix with Zipf-skewed keys (exponent 1.0). *)

val prefill_set : Fl.Registry.set_instance -> Fl.Registry.set_instance
(** Insert the paper's initial half-range keys
    ({!Distribution.initial_keys} with seed 2014) in ascending order, so
    every implementation starts from the same node layout, then drain. *)

val measure :
  ?order:Fl.Slack.order ->
  seed:int ->
  slack:int ->
  threads:int ->
  repeats:int ->
  ops:int ->
  'i t ->
  Runner.measurement
(** Thread [i] draws from [Rng.create ~seed ~stream:i] and notes into a
    fresh [Fl.Slack.create ?order slack] window. *)
