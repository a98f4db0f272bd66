module Future = Futures.Future

type 'a op = Enq of 'a * unit Future.t | Deq of 'a option Future.t

type 'a t = {
  seq : 'a Seqds.Seq_queue.t;
  core : 'a op Strong_core.t;
  (* Built once with the object and shared by every op's future. *)
  eval_enq : unit Future.t -> unit;
  eval_deq : 'a option Future.t -> unit;
}

let apply_batch seq ops =
  let apply = function
    | Enq (x, f) ->
        Seqds.Seq_queue.enqueue seq x;
        Future.fulfil f ()
    | Deq f -> Future.fulfil f (Seqds.Seq_queue.dequeue seq)
  in
  List.iter apply ops

let create () =
  let seq = Seqds.Seq_queue.create () in
  let core = Strong_core.create ~apply_batch:(apply_batch seq) in
  {
    seq;
    core;
    eval_enq = Strong_core.eval_future core;
    eval_deq = Strong_core.eval_future core;
  }

let enqueue t x =
  let f = Future.create_with ~evaluator:t.eval_enq in
  Strong_core.submit t.core (Enq (x, f));
  f

let dequeue t =
  let f = Future.create_with ~evaluator:t.eval_deq in
  Strong_core.submit t.core (Deq f);
  f

let drain t = Strong_core.drain_now t.core
let length t = Seqds.Seq_queue.length t.seq
let to_list t = Seqds.Seq_queue.to_list t.seq
let pending_cas_count t = Strong_core.pending_cas_count t.core
