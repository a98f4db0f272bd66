module Future = Futures.Future

type 'a op = Enq of 'a * unit Future.t | Deq of 'a option Future.t

type 'a t = { queue : 'a Lockfree.Ms_queue.t }

type 'a handle = {
  owner : 'a t;
  ops : ('a op, unit) Window.t;
  (* The handle's evaluators, built once with it and shared by every
     op's future: each applies the window up to the future it is
     given. *)
  eval_enq : unit Future.t -> unit;
  eval_deq : 'a option Future.t -> unit;
}

let create () = { queue = Lockfree.Ms_queue.create () }
let shared t = t.queue

let pending_count h = Window.length h.ops

let same_kind a b =
  match (a, b) with
  | Enq _, Enq _ | Deq _, Deq _ -> true
  | Enq _, Deq _ | Deq _, Enq _ -> false

let enq_value = function Enq (x, _) -> x | Deq _ -> assert false
let enq_future = function Enq (_, f) -> f | Deq _ -> assert false
let deq_future = function Deq f -> f | Enq _ -> assert false

(* Apply maximal prefix runs of same-type operations until the future
   [stop] is ready (checked between runs) or the window is empty. Each
   run is spliced straight out of the ring — one combined enqueue or
   dequeue per run — and dropped from the front only once fully
   applied, so operations appended by reentrant invocations simply
   extend the tail of the window. Cancelled ops are withdrawn first, so
   the runs only ever see live operations; cancellation is owner-only,
   so none can appear during the flush. *)
let flush_until h stop =
  ignore (Window.withdraw h.ops : int);
  let ops = Window.ops h.ops in
  let rec go () =
    let len = Opbuf.length ops in
    if len > 0 && not (Future.is_ready stop) then begin
      let first = Opbuf.get ops 0 in
      let n = ref 1 in
      while !n < len && same_kind (Opbuf.get ops !n) first do incr n done;
      let n = !n in
      (match first with
      | Enq _ ->
          Lockfree.Ms_queue.enqueue_seg h.owner.queue ~n ~get:(fun i ->
              enq_value (Opbuf.get ops i));
          Obs.splice ~kind:Obs.Event.k_medium_queue_enq ~n;
          for i = 0 to n - 1 do
            Future.fulfil (enq_future (Opbuf.get ops i)) ()
          done
      | Deq _ ->
          let k =
            Lockfree.Ms_queue.dequeue_seg h.owner.queue ~n ~f:(fun i v ->
                Future.fulfil (deq_future (Opbuf.get ops i)) (Some v))
          in
          Obs.splice ~kind:Obs.Event.k_medium_queue_deq ~n:k;
          for i = k to n - 1 do
            Future.fulfil (deq_future (Opbuf.get ops i)) None
          done);
      Opbuf.drop_front ops n;
      go ()
    end
  in
  go ()

(* Never ready, so flushing until it is applies the whole window. *)
let never : unit Future.t = Future.rejected ()
let flush h = flush_until h never

let abandon h = Window.abandon h.ops

let handle owner =
  let ops =
    Window.create
      ~pending:(function
        | Enq (_, f) -> Future.is_pending f | Deq f -> Future.is_pending f)
      ~poison:(function
        | Enq (_, f) -> Window.orphan f | Deq f -> Window.orphan f)
      ()
  in
  let rec h =
    {
      owner;
      ops;
      eval_enq = (fun f -> flush_until h f);
      eval_deq = (fun f -> flush_until h f);
    }
  in
  h

let enqueue h x =
  let f = Window.future h.eval_enq in
  Window.push h.ops (Enq (x, f));
  f

let dequeue h =
  let f = Window.future h.eval_deq in
  Window.push h.ops (Deq f);
  f
