module Future = Futures.Future

type 'a op = Push of 'a * unit Future.t | Pop of 'a option Future.t

type 'a t = { stack : 'a Lockfree.Treiber_stack.t }

(* Pending operations are kept in invocation order and elimination is
   decided at FLUSH time, not eagerly at invocation. Eager pairing would
   fulfil the pop's future immediately, closing its effect window while an
   older pop is still pending; another thread could then issue and
   evaluate a push strictly after that window and before the older pop's
   flush, forcing the cycle
     pop_old ≺ push ≺ pop_new ≺ other_push ≺ pop_old
   (program order + interval order + the values observed) — a medium-FL
   violation. Deferring the pairing to the flush keeps every window open
   until all of the thread's earlier operations have taken effect. *)
type 'a handle = {
  owner : 'a t;
  ops : ('a op, unit) Window.t;
  (* Flush-time working state: [buf] holds unmatched pushes (a LIFO via
     push/pop_back) and [shared_pops] the pops that must read the shared
     stack. Both are windows so [abandon] poisons what a flush had in
     hand. *)
  buf : (unit Future.t, 'a) Window.t;
  shared_pops : ('a option Future.t, unit) Window.t;
  (* The handle's evaluators, built once with it and shared by every
     op's future. *)
  eval_push : unit Future.t -> unit;
  eval_pop : 'a option Future.t -> unit;
}

let create () = { stack = Lockfree.Treiber_stack.create () }
let shared t = t.stack

let pending_count h = Window.length h.ops

(* Replay the pending window against a buffer of not-yet-applied pushes:
   a pop cancels the newest buffered push (the adjacent push/pop pair is
   a no-op on the stack); a pop with no buffered push must read the
   shared stack — and since its buffer was empty, every surviving push is
   younger than it, so all shared pops precede all surviving pushes in
   invocation order. One combined pop and one combined push suffice.
   Withdrawn (cancelled) ops are no-ops: a withdrawn push contributes no
   value and a withdrawn pop consumes none. *)
let flush h =
  if Window.length h.ops > 0 then begin
    let n = Window.detach h.ops in
    let work = Window.work h.ops in
    let buf_vals = Window.vals h.buf and buf_futs = Window.ops h.buf in
    let shared_pops = Window.ops h.shared_pops in
    for i = 0 to n - 1 do
      match Opbuf.get work i with
      | Push (v, f) ->
          Opbuf.push buf_vals v;
          Opbuf.push buf_futs f
      | Pop f ->
          if Opbuf.length buf_vals > 0 then begin
            let v = Opbuf.pop_back buf_vals in
            Future.fulfil (Opbuf.pop_back buf_futs) ();
            Future.fulfil f (Some v)
          end
          else Opbuf.push shared_pops f
    done;
    Window.release h.ops;
    let np = Opbuf.length shared_pops in
    if np > 0 then begin
      (* Oldest surviving pop receives the value that was on top. *)
      let k =
        Lockfree.Treiber_stack.pop_seg h.owner.stack ~n:np ~f:(fun i v ->
            Future.fulfil (Opbuf.get shared_pops i) (Some v))
      in
      Obs.splice ~kind:Obs.Event.k_medium_stack_pop ~n:k;
      for i = k to np - 1 do
        Future.fulfil (Opbuf.get shared_pops i) None
      done;
      Opbuf.clear shared_pops
    end;
    let nb = Opbuf.length buf_vals in
    if nb > 0 then begin
      (* Oldest surviving push deepest: one CAS splices the window. *)
      Lockfree.Treiber_stack.push_seg h.owner.stack ~n:nb ~get:(fun i ->
          Opbuf.get buf_vals i);
      Obs.splice ~kind:Obs.Event.k_medium_stack_push ~n:nb;
      for i = 0 to nb - 1 do
        Future.fulfil (Opbuf.get buf_futs i) ()
      done;
      Opbuf.clear buf_vals;
      Opbuf.clear buf_futs
    end
  end

let abandon h =
  Window.abandon h.ops + Window.abandon h.buf + Window.abandon h.shared_pops

let handle owner =
  let ops =
    Window.create
      ~pending:(function
        | Push (_, f) -> Future.is_pending f | Pop f -> Future.is_pending f)
      ~poison:(function
        | Push (_, f) -> Window.orphan f | Pop f -> Window.orphan f)
      ()
  in
  let rec h =
    {
      owner;
      ops;
      buf = Window.of_futures ();
      shared_pops = Window.of_futures ();
      eval_push = (fun _ -> flush h);
      eval_pop = (fun _ -> flush h);
    }
  in
  h

let push h x =
  let f = Window.future h.eval_push in
  Window.push h.ops (Push (x, f));
  f

let pop h =
  let f = Window.future h.eval_pop in
  Window.push h.ops (Pop f);
  f
