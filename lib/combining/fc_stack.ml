type 'a op = Push of 'a | Pop

type 'a res = Done | Popped of 'a option

type 'a t = {
  seq : 'a Seqds.Seq_stack.t;
  fc : ('a op, 'a res) Flat_combining.t;
}

type 'a handle = ('a op, 'a res) Flat_combining.handle

let create () =
  let seq = Seqds.Seq_stack.create () in
  let apply = function
    | Push v ->
        Seqds.Seq_stack.push seq v;
        Done
    | Pop -> Popped (Seqds.Seq_stack.pop seq)
  in
  { seq; fc = Flat_combining.create ~apply () }

let handle t = Flat_combining.handle t.fc

let push h v =
  match Flat_combining.apply h (Push v) with
  | Done -> ()
  | Popped _ -> assert false

let pop h =
  match Flat_combining.apply h Pop with
  | Popped r -> r
  | Done -> assert false

let length t = Seqds.Seq_stack.length t.seq
let to_list t = Seqds.Seq_stack.to_list t.seq
let combiner_passes t = Flat_combining.combiner_passes t.fc
let combiner_takeovers t = Flat_combining.combiner_takeovers t.fc
let retired_records t = Flat_combining.retired_records t.fc
