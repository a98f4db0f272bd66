module Future = Futures.Future

type 'a t = { queue : 'a Lockfree.Ms_queue.t }

type 'a handle = {
  owner : 'a t;
  (* Pending operations, oldest first. Enqueue values and futures live in
     parallel rings so an enqueue allocates nothing beyond its future. *)
  enqs : (unit Future.t, 'a) Window.t;
  deqs : ('a option Future.t, unit) Window.t;
  (* The handle's evaluators, built once with it and shared by every
     op's future. *)
  eval_enq : unit Future.t -> unit;
  eval_deq : 'a option Future.t -> unit;
}

let create () = { queue = Lockfree.Ms_queue.create () }
let shared t = t.queue

let pending_count h = Window.length h.enqs + Window.length h.deqs

let flush_enqueues h =
  if Window.length h.enqs > 0 then begin
    let n = Window.detach h.enqs in
    let futs = Window.work h.enqs and vals = Window.work_vals h.enqs in
    Lockfree.Ms_queue.enqueue_seg h.owner.queue ~n ~get:(fun i ->
        Opbuf.get vals i);
    Obs.splice ~kind:Obs.Event.k_weak_queue_enq ~n;
    for i = 0 to n - 1 do
      Future.fulfil (Opbuf.get futs i) ()
    done;
    Window.release h.enqs
  end

let flush_dequeues h =
  if Window.length h.deqs > 0 then begin
    let n = Window.detach h.deqs in
    let deqs = Window.work h.deqs in
    (* Oldest pending dequeue receives the oldest element; dequeues in
       excess of the queue's size observe "empty". *)
    let k =
      Lockfree.Ms_queue.dequeue_seg h.owner.queue ~n ~f:(fun i v ->
          Future.fulfil (Opbuf.get deqs i) (Some v))
    in
    Obs.splice ~kind:Obs.Event.k_weak_queue_deq ~n:k;
    for i = k to n - 1 do
      Future.fulfil (Opbuf.get deqs i) None
    done;
    Window.release h.deqs
  end

let flush h =
  flush_enqueues h;
  flush_dequeues h

let abandon h = Window.abandon h.enqs + Window.abandon h.deqs

let handle owner =
  let enqs = Window.of_futures () and deqs = Window.of_futures () in
  let rec h =
    {
      owner;
      enqs;
      deqs;
      eval_enq = (fun _ -> flush_enqueues h);
      eval_deq = (fun _ -> flush_dequeues h);
    }
  in
  h

let enqueue h x = Window.add_with h.enqs h.eval_enq x
let dequeue h = Window.add h.deqs h.eval_deq
