module Future = Futures.Future

module Make (K : Lockfree.Harris_list.KEY) = struct
  module L = Lockfree.Harris_list.Make (K)
  module S = Sorted.Set (K)

  type t = { list : L.t; resume_hint : bool }
  type handle = { owner : t; ops : (S.op, unit) Window.t (* oldest first *) }

  let create ?(resume_hint = true) () =
    { list = L.create (); resume_hint }

  let shared t = t.list

  let handle owner =
    { owner; ops = Window.create ~pending:S.pending ~poison:S.poison () }

  let pending_count h = Window.length h.ops

  (* Apply pending operations oldest-first until [stop] holds, resuming
     each search from the previous position when keys are non-decreasing.
     Each op leaves the front of the ring once applied, so reentrant
     invocations extend the tail. *)
  let flush_until h stop =
    let list = h.owner.list in
    let ops = Window.ops h.ops in
    if Window.withdraw h.ops > 0 then begin
      let last = ref (Opbuf.get ops 0) in
      let pos = ref (L.head_position list) in
      while Opbuf.length ops > 0 && not (stop ()) do
        let op = Opbuf.get ops 0 in
        if not (h.owner.resume_hint && K.compare op.key !last.key >= 0) then
          pos := L.head_position list;
        let result, p =
          match op.kind with
          | Insert -> L.insert_from list !pos op.key
          | Remove -> L.remove_from list !pos op.key
          | Contains -> L.contains_from list !pos op.key
        in
        Future.fulfil op.future result;
        Opbuf.drop_front ops 1;
        pos := p;
        last := op
      done
    end

  let flush h = flush_until h (fun () -> false)
  let abandon h = Window.abandon h.ops

  let add h key kind =
    let future = Future.create () in
    Future.set_evaluator future (fun () ->
        flush_until h (fun () -> Future.is_ready future));
    Window.push h.ops { S.key; kind; future };
    future

  let insert h key = add h key S.Insert
  let remove h key = add h key S.Remove
  let contains h key = add h key S.Contains
end
