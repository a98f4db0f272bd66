module Future = Futures.Future

type 'a op = Push of 'a * unit Future.t | Pop of 'a option Future.t

type 'a t = {
  seq : 'a Seqds.Seq_stack.t;
  core : 'a op Strong_core.t;
  (* Built once with the object and shared by every op's future. *)
  eval_push : unit Future.t -> unit;
  eval_pop : 'a option Future.t -> unit;
}

(* Apply a drained batch in its queue (= linearization) order. Pushes are
   buffered in a virtual stack; a pop takes the newest buffered value when
   one exists (elimination with the nearest preceding unmatched push —
   net effect on the stack is nil) and otherwise pops the sequential
   instance. The surviving buffered pushes are applied at the end with one
   bulk operation. The observable results are exactly those of applying
   the batch one by one. *)
let apply_batch seq ops =
  let buffered = ref [] (* newest first *) in
  let apply = function
    | Push (x, f) ->
        buffered := x :: !buffered;
        Future.fulfil f ()
    | Pop f -> (
        match !buffered with
        | x :: rest ->
            buffered := rest;
            Future.fulfil f (Some x)
        | [] -> Future.fulfil f (Seqds.Seq_stack.pop seq))
  in
  List.iter apply ops;
  Seqds.Seq_stack.push_list seq (List.rev !buffered)

let create () =
  let seq = Seqds.Seq_stack.create () in
  let core = Strong_core.create ~apply_batch:(apply_batch seq) in
  {
    seq;
    core;
    eval_push = Strong_core.eval_future core;
    eval_pop = Strong_core.eval_future core;
  }

let push t x =
  let f = Future.create_with ~evaluator:t.eval_push in
  Strong_core.submit t.core (Push (x, f));
  f

let pop t =
  let f = Future.create_with ~evaluator:t.eval_pop in
  Strong_core.submit t.core (Pop f);
  f

let drain t = Strong_core.drain_now t.core
let length t = Seqds.Seq_stack.length t.seq
let to_list t = Seqds.Seq_stack.to_list t.seq
let pending_cas_count t = Strong_core.pending_cas_count t.core
