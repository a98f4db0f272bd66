module Make (K : Lockfree.Harris_list.KEY) = struct
  module M = Lockfree.Harris_kv.Make (K)
  module S = Sorted.Map (K)

  type 'v t = { map : 'v M.t }
  type 'v handle = {
    owner : 'v t;
    ops : ('v S.op, unit) Window.t;
    (* Built once with the handle and shared by every op's future. *)
    eval_insert : bool Futures.Future.t -> unit;
    eval_lookup : 'v option Futures.Future.t -> unit;
  }

  let create () = { map = M.create () }
  let shared t = t.map

  let pending_count h = Window.length h.ops

  let flush h =
    if Window.length h.ops > 0 then begin
      ignore (Window.detach h.ops : int);
      ignore (S.apply h.owner.map (Window.work h.ops) : int);
      Window.release h.ops
    end

  let abandon h = Window.abandon h.ops

  let handle owner =
    let ops = Window.create ~pending:S.pending ~poison:S.poison () in
    let rec h =
      {
        owner;
        ops;
        eval_insert = (fun _ -> flush h);
        eval_lookup = (fun _ -> flush h);
      }
    in
    h

  let insert h key v =
    let f = Window.future h.eval_insert in
    Window.push h.ops (S.Insert (key, v, f));
    f

  let find h key =
    let f = Window.future h.eval_lookup in
    Window.push h.ops (S.Find (key, f));
    f

  let remove h key =
    let f = Window.future h.eval_lookup in
    Window.push h.ops (S.Remove (key, f));
    f
end
