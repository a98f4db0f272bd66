module Future = Futures.Future

type ('op, 'v) t = {
  ops : 'op Opbuf.t;
  vals : 'v Opbuf.t;
  work : 'op Opbuf.t;
  work_vals : 'v Opbuf.t;
  pending : 'op -> bool;
  poison : 'op -> bool;
}

let create ~pending ~poison () =
  {
    ops = Opbuf.create ();
    vals = Opbuf.create ();
    work = Opbuf.create ();
    work_vals = Opbuf.create ();
    pending;
    poison;
  }

let orphan f = Future.poison f Future.Orphaned
let of_futures () = create ~pending:Future.is_pending ~poison:orphan ()
let future eval = Future.create_with ~evaluator:eval

let push w op = Opbuf.push w.ops op

let add w eval =
  let f = future eval in
  push w f;
  f

let add_with w eval v =
  Opbuf.push w.vals v;
  add w eval

let length w = Opbuf.length w.ops
let ops w = w.ops
let vals w = w.vals
let work w = w.work
let work_vals w = w.work_vals

(* Tombstone every slot whose op is no longer pending — and its aligned
   value slot, if any — then compact both rings the same way, so they
   stay aligned. *)
let sweep pending ops vals =
  let n = Opbuf.length ops in
  let any = ref false in
  for i = 0 to n - 1 do
    if not (pending (Opbuf.get ops i)) then begin
      Opbuf.delete ops i;
      (match vals with Some vals -> Opbuf.delete vals i | None -> ());
      any := true
    end
  done;
  if not !any then n
  else begin
    (match vals with
    | Some vals -> ignore (Opbuf.compact vals : int)
    | None -> ());
    Opbuf.compact ops
  end

let withdraw w =
  sweep w.pending w.ops (if Opbuf.is_empty w.vals then None else Some w.vals)
let withdraw_ring ~pending ops = sweep pending ops None

let detach w =
  Opbuf.swap w.ops w.work;
  if Opbuf.is_empty w.vals then sweep w.pending w.work None
  else begin
    Opbuf.swap w.vals w.work_vals;
    sweep w.pending w.work (Some w.work_vals)
  end

let release w =
  Opbuf.clear w.work;
  Opbuf.clear w.work_vals

let poison_ring ~poison ops =
  let n = ref 0 in
  Opbuf.iter (fun op -> if poison op then incr n) ops;
  Opbuf.clear ops;
  !n

let abandon w =
  let poison = w.poison in
  let n = poison_ring ~poison w.ops + poison_ring ~poison w.work in
  Opbuf.clear w.vals;
  Opbuf.clear w.work_vals;
  n
