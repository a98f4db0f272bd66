(* Closed-loop workloads: two client domains, each issuing operations
   back to back through its own Fl.Registry handle and forcing them
   through an Fl.Slack window. Inputs are generated before set-up from
   the seed: a ring of 65,536 packed (code, key) draws per domain. *)

module F = Futures.Future
module R = Fl.Registry
module H = Harness

type structure = Stack | Queue | Set

type spec = { structure : structure; impl : string; slack : int; cert : bool }

let key_range = Workload.Distribution.default_key_range
let depth = 4096
let now = Host.now_ns

(* Per-domain bookkeeping for the correctness checks. *)
type st = {
  tid : int;
  mutable seq : int; (* values this domain added *)
  rem : Values.removals;
  mutable ins_ok : int;
  mutable rem_ok : int;
}

(* One operation kind: how its argument is made from a draw, the
   registry call, what its result means for the checks, and its
   certificate event (value lsl 2 lor 0 add / 1 remove; 2 empty remove;
   3 none). *)
module type OP = sig
  type h
  type r

  val prepare : st -> int -> int
  val invoke : h -> int -> r F.t
  val complete : st -> r -> unit
  val event : int -> r -> int
end

let next_value st =
  let v = Values.value ~tid:st.tid ~seq:st.seq in
  st.seq <- st.seq + 1;
  v

let removed st = function Some v -> Values.note_removed st.rem v | None -> ()
let remove_event _ = function Some v -> (v lsl 2) lor 1 | None -> 2

module Push = struct
  type h = R.stack_ops
  type r = unit

  let prepare st _ = next_value st
  let invoke h v = h.R.s_push v
  let complete _ () = ()
  let event v () = v lsl 2
end

module Pop = struct
  type h = R.stack_ops
  type r = int option

  let prepare _ _ = 0
  let invoke h _ = h.R.s_pop ()
  let complete = removed
  let event = remove_event
end

module Enq = struct
  type h = R.queue_ops
  type r = unit

  let prepare st _ = next_value st
  let invoke h v = h.R.q_enq v
  let complete _ () = ()
  let event v () = v lsl 2
end

module Deq = struct
  type h = R.queue_ops
  type r = int option

  let prepare _ _ = 0
  let invoke h _ = h.R.q_deq ()
  let complete = removed
  let event = remove_event
end

module Insert = struct
  type h = R.set_ops
  type r = bool

  let prepare _ k = k
  let invoke h k = h.R.l_insert k
  let complete st r = if r then st.ins_ok <- st.ins_ok + 1
  let event _ _ = 3
end

module Remove = struct
  type h = R.set_ops
  type r = bool

  let prepare _ k = k
  let invoke h k = h.R.l_remove k
  let complete st r = if r then st.rem_ok <- st.rem_ok + 1
  let event _ _ = 3
end

module Contains = struct
  type h = R.set_ops
  type r = bool

  let prepare _ k = k
  let invoke h k = h.R.l_contains k
  let complete _ _ = ()
  let event _ _ = 3
end

(* The ways one op can be issued, bound to a domain's state. *)
type step = {
  plain : H.probe -> int -> unit;
  timed : H.probe -> int -> unit; (* plus an invoke -> forced latency sample *)
  cert : H.probe -> int -> unit; (* every op recorded for the certificate *)
  traced : H.probe -> int -> req:int -> sampled:bool -> unit;
}

let step (type h) (module O : OP with type h = h) st (h : h) sl =
  let plain _ a =
    let x = O.prepare st a in
    let f = O.invoke h x in
    Fl.Slack.note sl (fun () -> O.complete st (F.force f))
  and timed p a =
    let x = O.prepare st a in
    let t0 = now () in
    let f = O.invoke h x in
    Fl.Slack.note sl (fun () ->
        let r = F.force f in
        H.record_lat p (now () - t0);
        O.complete st r)
  and cert (p : H.probe) a =
    let x = O.prepare st a in
    let i = p.c_n in
    p.c_n <- i + 1;
    p.c_start.(i) <- now ();
    let f = O.invoke h x in
    Fl.Slack.note sl (fun () ->
        let r = F.force f in
        p.c_stop.(i) <- now ();
        p.c_ev.(i) <- O.event x r;
        O.complete st r)
  and traced (p : H.probe) a ~req ~sampled =
    let x = O.prepare st a in
    let b = p.spans in
    let t0 = if sampled then now () else 0 in
    let f = O.invoke h x in
    p.n_inv <- p.n_inv + 1;
    if F.is_ready f then p.ready_inv <- p.ready_inv + 1;
    if sampled then begin
      let t1 = now () in
      let root = Spans.start b ~name:Spans.op ~parent:(-1) ~req ~t0 in
      Spans.add b ~name:Spans.invoke ~parent:root ~req ~t0 ~t1;
      H.traced_note p sl (fun () ->
          H.count_force p f;
          let t2 = now () in
          let r = F.force f in
          let t3 = now () in
          if p.in_drain then p.drain_acc <- p.drain_acc + (t3 - t2);
          Spans.add b ~name:Spans.window ~parent:root ~req ~t0:t1 ~t1:t2;
          Spans.add b ~name:Spans.force ~parent:root ~req ~t0:t2 ~t1:t3;
          Spans.finish b root ~t1:t3;
          O.complete st r)
    end
    else
      H.traced_note p sl (fun () ->
          H.count_force p f;
          O.complete st (H.force_in_drain p f))
  in
  { plain; timed; cert; traced }

(* ------------------------------ contexts ------------------------------ *)

type ctx = {
  client : int -> st * step array * (unit -> unit);
      (* a domain's state, op steps by code, and quiescence (drain the
         slack window, flush the handle) *)
  sts : st option array; (* filled in by each client *)
  contents : unit -> int list;
  cas : unit -> int;
  settle : unit -> unit; (* whole-structure drain at quiescence *)
  prefill : int;
  mutable prefix : int list; (* contents at the start of the cert phase, add order *)
  mutable prefix_at : int;
}

(* The timed set-up makes the structure (and the set's prefill). Each
   client makes its own handle, slack window and bookkeeping when it
   starts, in its own domain, as the registry prescribes: made here they
   would sit next to each other in memory and share cache lines. *)
let setup spec ~seed () =
  let make ~contents ~cas ~settle ~prefill make_handle flush ops =
    let client tid =
      let st = { tid; seq = 0; rem = Values.removals (H.domains + 1); ins_ok = 0; rem_ok = 0 } in
      let h = make_handle () and sl = Fl.Slack.create spec.slack in
      (st, Array.map (fun o -> step o st h sl) ops, fun () -> Fl.Slack.drain sl; flush h)
    in
    { client; sts = Array.make H.domains None; contents; cas; settle; prefill; prefix = []; prefix_at = 0 }
  in
  (* Stacks and queues start with [depth] values (producer id
     [H.domains]), deeper than the balanced input ring ever digs, so
     removals never find the structure empty and every run settles in
     the same regime. *)
  let fill add flush =
    let fs = List.init depth (fun seq -> add (Values.value ~tid:H.domains ~seq)) in
    flush ();
    List.iter F.force fs;
    depth
  in
  match spec.structure with
  | Stack ->
      let i = (R.find_stack spec.impl).R.s_make () in
      let o = i.R.s_handle () in
      let prefill = fill o.R.s_push o.R.s_flush in
      make ~contents:i.R.s_contents ~cas:i.R.s_cas_count ~settle:i.R.s_drain ~prefill
        i.R.s_handle
        (fun h -> h.R.s_flush ())
        [| (module Push : OP with type h = R.stack_ops); (module Pop) |]
  | Queue ->
      let i = (R.find_queue spec.impl).R.q_make () in
      let o = i.R.q_handle () in
      let prefill = fill o.R.q_enq o.R.q_flush in
      make ~contents:i.R.q_contents ~cas:i.R.q_cas_count ~settle:i.R.q_drain ~prefill
        i.R.q_handle
        (fun h -> h.R.q_flush ())
        [| (module Enq : OP with type h = R.queue_ops); (module Deq) |]
  | Set ->
      let i = (R.find_set spec.impl).R.l_make () in
      (* The paper's list set-up: half the key range, inserted ascending
         through one handle and settled before any client starts. *)
      let keys = List.sort compare (Workload.Distribution.initial_keys ~key_range ~seed ()) in
      let o = i.R.l_handle () in
      let fs = List.map o.R.l_insert keys in
      o.R.l_flush ();
      i.R.l_drain ();
      List.iter (fun f -> ignore (F.force f)) fs;
      make ~contents:i.R.l_contents ~cas:i.R.l_cas_count ~settle:i.R.l_drain
        ~prefill:(List.length keys) i.R.l_handle
        (fun h -> h.R.l_flush ())
        [| (module Insert : OP with type h = R.set_ops); (module Remove); (module Contains) |]

(* Packed draws: op code in the low 2 bits, key above. Stacks and queues
   get an exactly balanced shuffle of adds and removes, so the structure
   returns to the same size after every pass over the ring and its
   depth (hence memory and cache behaviour) does not drift with the
   seed; sets draw 20/20/60 insert/remove/contains over the paper's 10K
   keys. *)
let ring = 65536

let inputs spec ~seed =
  Array.init H.domains (fun tid ->
      let rng = Workload.Rng.create ~seed ~stream:(tid + 1) in
      match spec.structure with
      | Stack | Queue ->
          let a = Array.init ring (fun i -> i land 1) in
          for i = ring - 1 downto 1 do
            let j = Workload.Rng.below rng (i + 1) in
            let t = a.(i) in
            a.(i) <- a.(j);
            a.(j) <- t
          done;
          a
      | Set ->
          Array.init ring (fun _ ->
              let d = Workload.Rng.below rng 10 in
              let code = if d < 2 then 0 else if d < 4 then 1 else 2 in
              code lor (Workload.Rng.below rng key_range lsl 2)))

(* ------------------------------- clients ------------------------------ *)

let worker spec inputs ctx (p : H.probe) =
  let st, steps, quiesce = ctx.client p.tid in
  ctx.sts.(p.tid) <- Some st;
  let input = inputs.(p.tid) in
  let i = ref 0 and batches = ref 0 and time_every_op = spec.structure = Set in
  let draw () =
    let a = input.(!i land (ring - 1)) in
    incr i;
    p.ops <- p.ops + 1;
    a
  in
  let rec loop () =
    let ph = H.observe p in
    if ph = H.stop then quiesce ()
    else begin
      if ph = H.traced then
        for _ = 1 to 64 do
          let a = draw () in
          steps.(a land 3).traced p (a lsr 2) ~req:p.ops
            ~sampled:(p.ops land (p.span_every - 1) = 0)
        done
      else if ph = H.pause then begin
        quiesce ();
        H.park p ph
      end
      else if ph = H.cert then begin
        let left = Array.length p.c_ev - p.c_n in
        if left > 0 then
          for _ = 1 to min 64 left do
            let a = draw () in
            steps.(a land 3).cert p (a lsr 2)
          done
        else begin
          quiesce ();
          H.park p ph
        end
      end
      else begin
        (* Latency samples: every set op (tens of microseconds each, so
           two clock reads are noise), one stack or queue op in 256. *)
        incr batches;
        for k = 1 to 64 do
          let a = draw () in
          if time_every_op || (k = 1 && !batches land 3 = 0) then
            steps.(a land 3).timed p (a lsr 2)
          else steps.(a land 3).plain p (a lsr 2)
        done
      end;
      H.publish p;
      loop ()
    end
  in
  loop ()

(* Record the structure's contents, in the order they were added, as the
   certificate's starting state: synthetic adds stamped just before the
   cert phase begins. *)
let on_quiescent spec ctx =
  let c = ctx.contents () in
  ctx.prefix <- (match spec.structure with Stack -> List.rev c | Queue | Set -> c);
  ctx.prefix_at <- now ()

let impl spec ~seed =
  let inputs = inputs spec ~seed in
  {
    H.setup = setup spec ~seed;
    discard = ignore;
    worker = worker spec inputs;
    api = (fun ctx -> [| ctx.cas () |]);
    (* Closed loops run with Obs off; the alt window turns it on at the
       default sampling stride. *)
    flip_obs = Obs.set_enabled;
    on_quiescent = (if spec.cert then Some (on_quiescent spec) else None);
  }

(* ------------------------------- checks ------------------------------- *)

(* Feed the cert phase to Lin.Stream under Weak FIFO/LIFO: the synthetic
   prefix, then every recorded op in completion order. Returns the
   events fed, the time Lin.Stream took and the verdict. *)
let certify spec ctx (probes : H.probe array) =
  let n_prefix = List.length ctx.prefix in
  let n = n_prefix + Array.fold_left (fun n (p : H.probe) -> n + p.c_n) 0 probes in
  let start = Array.make n 0 and stop = Array.make n 0 and code = Array.make n 0 in
  List.iteri
    (fun i v ->
      start.(i) <- ctx.prefix_at - n_prefix + i;
      stop.(i) <- start.(i);
      code.(i) <- v lsl 2)
    ctx.prefix;
  let k = ref n_prefix in
  Array.iter
    (fun (p : H.probe) ->
      Array.blit p.c_start 0 start !k p.c_n;
      Array.blit p.c_stop 0 stop !k p.c_n;
      Array.blit p.c_ev 0 code !k p.c_n;
      k := !k + p.c_n)
    probes;
  let order = Array.init n Fun.id in
  Array.sort
    (fun i j ->
      match Int.compare stop.(i) stop.(j) with 0 -> Int.compare start.(i) start.(j) | c -> c)
    order;
  let m =
    Lin.Stream.create (match spec.structure with Stack -> Lin.Stream.Lifo | _ -> Lin.Stream.Fifo)
  in
  let t0 = now () in
  Array.iter
    (fun i ->
      let ev =
        match code.(i) land 3 with
        | 0 -> Lin.Stream.Add (code.(i) lsr 2)
        | 1 -> Lin.Stream.Remove (code.(i) lsr 2)
        | _ -> Lin.Stream.Remove_empty
      in
      Lin.Stream.feed m ~start:start.(i) ~stop:stop.(i) ev)
    order;
  let verdict = Lin.Stream.finalize m in
  (n, float_of_int (now () - t0) /. 1e9, verdict)

let rec strictly_ascending = function
  | a :: (b :: _ as tl) -> a < b && strictly_ascending tl
  | _ -> true

(* Correctness after the run: (check, violation) pairs. *)
let checks spec ctx probes =
  ctx.settle ();
  let contents = ctx.contents () in
  let sts = Array.map Option.get ctx.sts in
  let structure =
    match spec.structure with
    | Stack | Queue ->
        ( "values",
          Values.check
            (Array.map (fun st -> st.rem) sts)
            ~added:(Array.append (Array.map (fun st -> st.seq) sts) [| ctx.prefill |])
            ~contents )
    | Set ->
        let ins = Array.fold_left (fun n st -> n + st.ins_ok) 0 sts
        and rem = Array.fold_left (fun n st -> n + st.rem_ok) 0 sts in
        let size = List.length contents in
        ( "set",
          if not (strictly_ascending contents) then Some "contents are not strictly ascending"
          else if ins - rem <> size - ctx.prefill then
            Some
              (Printf.sprintf "%d inserts - %d removes <> final size %d - %d prefilled" ins rem
                 size ctx.prefill)
          else None )
  in
  if spec.cert && Array.exists (fun (p : H.probe) -> p.c_n > 0) probes then begin
    let n, secs, verdict = certify spec ctx probes in
    let cert =
      match verdict with
      | Lin.Stream.Accept -> None
      | Lin.Stream.Reject { index; reason } ->
          Some (Printf.sprintf "weak-FL certificate rejects event %d: %s" index reason)
    in
    ([ structure; ("certificate", cert) ], Some (float_of_int n /. secs, n))
  end
  else ([ structure ], None)
