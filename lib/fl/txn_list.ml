module Make (K : Lockfree.Harris_list.KEY) = struct
  module L = Lockfree.Harris_list.Make (K)
  module S = Sorted.Set (K)

  type t = { list : L.t; lock : Sync.Spinlock.t }
  type handle = {
    owner : t;
    ops : (S.op, unit) Window.t;
    eval : bool Futures.Future.t -> unit;
        (* built once with the handle, shared by every op's future *)
  }

  let create () = { list = L.create (); lock = Sync.Spinlock.create () }
  let shared t = t.list

  let pending_count h = Window.length h.ops

  (* The weak list's sorted apply; the lock is what distinguishes this
     from the weak list: the whole batch takes effect atomically, so
     applying it in key order is unobservable and medium-FL is
     preserved. *)
  let flush h =
    if Window.length h.ops > 0 then begin
      if Window.detach h.ops > 0 then
        Sync.Spinlock.with_lock h.owner.lock (fun () ->
            S.apply h.owner.list (Window.work h.ops));
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
