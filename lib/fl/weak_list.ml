module Make (K : Lockfree.Harris_list.KEY) = struct
  module L = Lockfree.Harris_list.Make (K)
  module S = Sorted.Set (K)

  type t = { list : L.t }
  type handle = {
    owner : t;
    ops : (S.op, unit) Window.t;
    eval : bool Futures.Future.t -> unit;
        (* built once with the handle, shared by every op's future *)
  }

  let create () = { list = L.create () }
  let shared t = t.list

  let pending_count h = Window.length h.ops

  (* The whole window is resolved by one sorted traversal. *)
  let flush h =
    if Window.length h.ops > 0 then begin
      let n = Window.detach h.ops in
      S.apply h.owner.list (Window.work h.ops);
      Obs.splice ~kind:Obs.Event.k_weak_list ~n;
      Window.release h.ops
    end

  let abandon h = Window.abandon h.ops

  let handle owner =
    let ops = Window.create ~pending:S.pending ~poison:S.poison () in
    let rec h = { owner; ops; eval = (fun _ -> flush h) } in
    h

  let add h key kind =
    let future = Window.future h.eval in
    Window.push h.ops { S.key; kind; future };
    future

  let insert h key = add h key S.Insert
  let remove h key = add h key S.Remove
  let contains h key = add h key S.Contains
end
