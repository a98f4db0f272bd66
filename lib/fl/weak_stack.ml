module Future = Futures.Future

type 'a t = {
  stack : 'a Lockfree.Treiber_stack.t;
  elimination : bool;
  exchange : 'a Lockfree.Exchanger.t option;
      (* cross-handle elimination array, shared by all handles *)
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

let create ?(elimination = true) ?(exchange = false) () =
  {
    stack = Lockfree.Treiber_stack.create ();
    elimination;
    exchange = (if exchange then Some (Lockfree.Exchanger.create ()) else None);
  }

let shared t = t.stack

let exchanged t =
  match t.exchange with None -> 0 | Some ex -> Lockfree.Exchanger.exchanged ex

let exchanger t = t.exchange

let pending_count h = Window.length h.pushes + Window.length h.pops

(* How long a leftover pop waits in the exchange array for a producer. *)
let exchange_patience = 64

let flush_pushes h =
  if Window.length h.pushes > 0 then begin
    let n = Window.detach h.pushes in
    let vals = Window.work_vals h.pushes and futs = Window.work h.pushes in
    (* Cross-handle elimination: hand values to takers parked by other
       handles' starving pops. Producers only ever [try_give] — they never
       park — so the fast path costs one read-only scan when nobody
       waits. Survivors are compacted in place and spliced below. *)
    let n =
      match h.owner.exchange with
      | Some ex when Lockfree.Exchanger.takers_waiting ex ->
          let kept = ref 0 in
          for i = 0 to n - 1 do
            let v = Opbuf.get vals i in
            if Lockfree.Exchanger.try_give ex v then
              Future.fulfil (Opbuf.get futs i) ()
            else begin
              Opbuf.set vals !kept v;
              Opbuf.set futs !kept (Opbuf.get futs i);
              incr kept
            end
          done;
          !kept
      | _ -> n
    in
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
    (* Pops in excess of the stack's size try the exchange array — some
       other handle may be flushing pushes right now — and only then
       observe "empty". *)
    for i = k to n - 1 do
      let fed =
        match h.owner.exchange with
        | Some ex -> Lockfree.Exchanger.take ~patience:exchange_patience ex
        | None -> None
      in
      Future.fulfil (Opbuf.get pops i) fed
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
