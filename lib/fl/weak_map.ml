module Make (K : Lockfree.Harris_list.KEY) = struct
  module M = Lockfree.Harris_kv.Make (K)
  module S = Sorted.Map (K)

  type 'v t = { map : 'v M.t }
  type 'v handle = { owner : 'v t; ops : ('v S.op, unit) Window.t }

  let create () = { map = M.create () }
  let shared t = t.map

  let handle owner =
    { owner; ops = Window.create ~pending:S.pending ~poison:S.poison () }

  let pending_count h = Window.length h.ops

  let flush h =
    if Window.length h.ops > 0 then begin
      ignore (Window.detach h.ops : int);
      ignore (S.apply h.owner.map (Window.work h.ops) : int);
      Window.release h.ops
    end

  let abandon h = Window.abandon h.ops

  let insert h key v =
    let f = Window.future (fun () -> flush h) in
    Window.push h.ops (S.Insert (key, v, f));
    f

  let find h key =
    let f = Window.future (fun () -> flush h) in
    Window.push h.ops (S.Find (key, f));
    f

  let remove h key =
    let f = Window.future (fun () -> flush h) in
    Window.push h.ops (S.Remove (key, f));
    f
end
