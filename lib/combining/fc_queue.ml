type 'a op = Enq of 'a | Deq

type 'a res = Done | Dequeued of 'a option

type 'a t = {
  seq : 'a Seqds.Seq_queue.t;
  fc : ('a op, 'a res) Flat_combining.t;
}

type 'a handle = ('a op, 'a res) Flat_combining.handle

let create () =
  let seq = Seqds.Seq_queue.create () in
  let apply = function
    | Enq v ->
        Seqds.Seq_queue.enqueue seq v;
        Done
    | Deq -> Dequeued (Seqds.Seq_queue.dequeue seq)
  in
  { seq; fc = Flat_combining.create ~apply () }

let handle t = Flat_combining.handle t.fc

let enqueue h v =
  match Flat_combining.apply h (Enq v) with
  | Done -> ()
  | Dequeued _ -> assert false

let dequeue h =
  match Flat_combining.apply h Deq with
  | Dequeued r -> r
  | Done -> assert false

let length t = Seqds.Seq_queue.length t.seq
let to_list t = Seqds.Seq_queue.to_list t.seq
let combiner_passes t = Flat_combining.combiner_passes t.fc
let combiner_takeovers t = Flat_combining.combiner_takeovers t.fc
let retired_records t = Flat_combining.retired_records t.fc
