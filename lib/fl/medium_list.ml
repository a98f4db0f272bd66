module Future = Futures.Future

module Make (K : Lockfree.Harris_list.KEY) = struct
  module L = Lockfree.Harris_list.Make (K)
  module S = Sorted.Set (K)

  type t = { list : L.t; resume_hint : bool }
  type handle = {
    owner : t;
    ops : (S.op, unit) Window.t;  (* oldest first *)
    (* Built once with the handle and shared by every op's future:
       applies the window up to the future it is given. *)
    eval : bool Future.t -> unit;
  }

  let create ?(resume_hint = true) () =
    { list = L.create (); resume_hint }

  let shared t = t.list

  let pending_count h = Window.length h.ops

  (* Apply pending operations oldest-first until the future [stop] is
     ready, resuming each search from the previous position when keys
     are non-decreasing. Each op leaves the front of the ring once
     applied, so reentrant invocations extend the tail. *)
  let flush_until h stop =
    let list = h.owner.list in
    let ops = Window.ops h.ops in
    if Window.withdraw h.ops > 0 then begin
      let last = ref (Opbuf.get ops 0) in
      let pos = ref (L.head_position list) in
      while Opbuf.length ops > 0 && not (Future.is_ready stop) do
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

  (* Never ready, so flushing until it is applies the whole window. *)
  let never : unit Future.t = Future.rejected ()
  let flush h = flush_until h never
  let abandon h = Window.abandon h.ops

  let handle owner =
    let ops = Window.create ~pending:S.pending ~poison:S.poison () in
    let rec h = { owner; ops; eval = (fun f -> flush_until h f) } in
    h

  let add h key kind =
    let future = Window.future h.eval in
    Window.push h.ops { S.key; kind; future };
    future

  let insert h key = add h key S.Insert
  let remove h key = add h key S.Remove
  let contains h key = add h key S.Contains
end
