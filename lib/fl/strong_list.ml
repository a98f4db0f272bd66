module Future = Futures.Future

module Make (K : Lockfree.Harris_list.KEY) = struct
  module S = Seqds.Seq_list.Make (K)

  type kind = Insert | Remove | Contains

  type op = { key : K.t; kind : kind; future : bool Future.t }

  type t = {
    seq : S.t;
    core : op Strong_core.t;
    eval : bool Future.t -> unit;
        (* built once with the object, shared by every op's future *)
  }

  let apply_op_at cursor op =
    let result =
      match op.kind with
      | Insert -> S.seek_insert cursor op.key
      | Remove -> S.seek_remove cursor op.key
      | Contains -> S.seek_contains cursor op.key
    in
    Future.fulfil op.future result

  let apply_batch seq ~sort_batch ops =
    if sort_batch then begin
      (* Stable by key: operations on equal keys keep their linearization
         order; distinct keys commute, so sorting is unobservable. One
         monotone cursor applies the whole batch in a single traversal. *)
      let sorted =
        List.stable_sort (fun a b -> K.compare a.key b.key) ops
      in
      let cursor = S.cursor seq in
      List.iter (apply_op_at cursor) sorted
    end
    else
      (* Ablation: temporal order, each operation pays a full search. *)
      List.iter (fun op -> apply_op_at (S.cursor seq) op) ops

  let create ?(sort_batch = true) () =
    let seq = S.create () in
    let core = Strong_core.create ~apply_batch:(apply_batch seq ~sort_batch) in
    { seq; core; eval = Strong_core.eval_future core }

  let submit t key kind =
    let future = Future.create_with ~evaluator:t.eval in
    Strong_core.submit t.core { key; kind; future };
    future

  let insert t key = submit t key Insert
  let remove t key = submit t key Remove
  let contains t key = submit t key Contains

  let drain t = Strong_core.drain_now t.core
  let length t = S.length t.seq
  let to_list t = S.to_list t.seq
  let pending_cas_count t = Strong_core.pending_cas_count t.core
end
