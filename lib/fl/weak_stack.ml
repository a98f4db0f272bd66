module Future = Futures.Future

type 'a t = {
  stack : 'a Lockfree.Treiber_stack.t;
  elimination : bool;
}

type 'a handle = {
  owner : 'a t;
  (* Pending operations, oldest first. With elimination enabled at most one
     of the two windows is non-empty (a new operation of the opposite type
     pairs off instead of accumulating). Push values and futures live in
     parallel rings so a push allocates nothing beyond its future. *)
  pushes : (unit Future.t, 'a) Window.t;
  pops : ('a option Future.t, unit) Window.t;
  (* The handle's evaluators, built once with it: every op's future
     shares one, so an op allocates nothing beyond its future. *)
  eval_push : unit Future.t -> unit;
  eval_pop : 'a option Future.t -> unit;
}

let create ?(elimination = true) () =
  { stack = Lockfree.Treiber_stack.create (); elimination }

let shared t = t.stack
let pending_count h = Window.length h.pushes + Window.length h.pops

let flush_pushes h =
  if Window.length h.pushes > 0 then begin
    let n = Window.detach h.pushes in
    let vals = Window.work_vals h.pushes and futs = Window.work h.pushes in
    (* Oldest push deepest: one CAS splices the whole window. *)
    Lockfree.Treiber_stack.push_seg h.owner.stack ~n ~get:(fun i ->
        Opbuf.get vals i);
    Obs.splice ~kind:Obs.Event.k_weak_stack_push ~n;
    for i = 0 to n - 1 do
      Future.fulfil (Opbuf.get futs i) ()
    done;
    Window.release h.pushes
  end

let flush_pops h =
  if Window.length h.pops > 0 then begin
    let n = Window.detach h.pops in
    let pops = Window.work h.pops in
    (* Oldest pending pop receives the value that was on top. *)
    let k =
      Lockfree.Treiber_stack.pop_seg h.owner.stack ~n ~f:(fun i v ->
          Future.fulfil (Opbuf.get pops i) (Some v))
    in
    Obs.splice ~kind:Obs.Event.k_weak_stack_pop ~n:k;
    (* Pops in excess of the stack's size observe "empty". *)
    for i = k to n - 1 do
      Future.fulfil (Opbuf.get pops i) None
    done;
    Window.release h.pops
  end

let flush h =
  flush_pops h;
  flush_pushes h

let abandon h = Window.abandon h.pushes + Window.abandon h.pops

let handle owner =
  let pushes = Window.of_futures () and pops = Window.of_futures () in
  let rec h =
    {
      owner;
      pushes;
      pops;
      eval_push = (fun _ -> flush h);
      eval_pop = (fun _ -> flush h);
    }
  in
  h

(* Elimination: a push hands its value to the newest pending pop (and
   vice versa); neither operation ever reaches the shared stack. A
   partner whose future was cancelled no longer wants the pairing: drop
   it and pair with the next. Top-level (not closures) so the window
   fast path below allocates nothing beyond the future. *)
let rec eliminate_push h x =
  let pops = Window.ops h.pops in
  if Opbuf.length pops > 0 then
    if Future.try_fulfil (Opbuf.pop_back pops) (Some x) then
      Some (Future.of_value ())
    else eliminate_push h x
  else None

let rec eliminate_pop h =
  let vals = Window.vals h.pushes in
  if Opbuf.length vals > 0 then begin
    let x = Opbuf.pop_back vals in
    if Future.try_fulfil (Opbuf.pop_back (Window.ops h.pushes)) () then
      Some (Future.of_value (Some x))
    else
      (* Cancelled push: its value was withdrawn, not transferred. *)
      eliminate_pop h
  end
  else None

let window_push h x = Window.add_with h.pushes h.eval_push x
let window_pop h = Window.add h.pops h.eval_pop

let push h x =
  if h.owner.elimination && Window.length h.pops > 0 then
    match eliminate_push h x with Some f -> f | None -> window_push h x
  else window_push h x

let pop h =
  if h.owner.elimination && Window.length h.pushes > 0 then
    match eliminate_pop h with Some f -> f | None -> window_pop h
  else window_pop h
