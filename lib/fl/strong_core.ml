type 'a t = {
  queue : 'a Pending_queue.t;
  lock : Sync.Spinlock.t;
  apply_batch : 'a list -> unit;
}

let create ~apply_batch =
  {
    queue = Pending_queue.create ();
    lock = Sync.Spinlock.create ();
    apply_batch;
  }

let submit t op = Pending_queue.enqueue t.queue op

let drain_locked t =
  match Pending_queue.drain t.queue with
  | [] -> ()
  | ops -> t.apply_batch ops

let eval t ~is_ready =
  let rec loop () =
    if not (is_ready ()) then
      if Sync.Spinlock.acquire_until t.lock is_ready then begin
        (* We hold the lock. Our operation was submitted before eval
           started, so the drain covers it — unless a previous lock holder
           already fulfilled our future, in which case nothing is owed.
           Released by [match ... with exception], so a lock hold
           builds no closure. *)
        (match if not (is_ready ()) then drain_locked t with
        | () -> Sync.Spinlock.release t.lock
        | exception e ->
            Sync.Spinlock.release t.lock;
            raise e);
        loop ()
      end
    (* else: is_ready became true while we waited for the lock. *)
  in
  loop ();
  assert (is_ready ())

(* The [is_ready] closure is built per force, not per invocation, and
   dies young: an op waiting in the queue carries none. *)
let eval_future t f = eval t ~is_ready:(fun () -> Futures.Future.is_ready f)

let drain_now t =
  Sync.Spinlock.acquire t.lock;
  match drain_locked t with
  | () -> Sync.Spinlock.release t.lock
  | exception e ->
      Sync.Spinlock.release t.lock;
      raise e

let pending_cas_count t = Pending_queue.cas_count t.queue
