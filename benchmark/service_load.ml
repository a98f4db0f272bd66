(* Open-loop service workloads: two client domains, each a Poisson
   arrival schedule driving the session model of Workload.Service — an
   admission-gated session-store op (60/30/10 find/insert/remove over
   1,024 keys), one job ticket enqueued per admitted request, 16 jobs
   dequeued every 16 requests, all forced through a slack-16 window.
   The loop mirrors Service.run's worker, but owns its generator and
   sample buffers so every call can be timed. Every request is timed
   from its intended arrival to the moment its store future is
   forced. *)

module F = Futures.Future
module H = Harness
module Ovl = Workload.Overload

module Key = struct
  type t = int

  let compare = Int.compare
  let hash k = Hashtbl.hash k
end

module SM = Fl.Shard_map.Make (Key)
module WM = Fl.Weak_map.Make (Key)
module HK = Lockfree.Harris_kv.Make (Key)
module WQ = Fl.Weak_queue

type backend = Central | Sharded

let rate_per_domain = 15_000.0
let key_range = 1024
let slack = 16
let drain_every = 16
let retry_attempts = 3
let epoch_s = 0.01
let buckets = 8

(* The store's default lease. With Service's 5 ms leases a client
   descheduled for one lease lets a peer usurp a shipped window and
   poison its ops: 1-2 failed requests in 4 of 10 fault-free runs on a
   2-vCPU host. The longer lease keeps every run failure-free without
   moving the sojourn median (665 us either way); transfers still show
   in the shard.* metrics. *)
let lease_s = 0.05
let grant_timeout_s = 0.0005

(* bench/'s service budgets: generous force and pendingness budgets, and
   a 50 ms sojourn budget that only a real backlog trips. *)
let overload_cfg =
  {
    Ovl.default with
    p99_budget_ns = 50_000_000;
    pending_budget_ns = 500_000_000;
    sojourn_budget_ns = 50_000_000;
  }

(* A store future of any result type. *)
type pending = P : 'a F.t -> pending

type session = {
  find : int -> int option F.t;
  insert : int -> int -> bool F.t;
  remove : int -> int option F.t;
  flush : unit -> unit;
}

type client = {
  sess : session;
  qh : int WQ.handle;
  sl : Fl.Slack.t;
  rem : Values.removals; (* tickets this client dequeued *)
  mutable seq : int; (* tickets enqueued *)
  mutable requests : int;
  mutable admitted : int;
  mutable shed : int;
  mutable completed : int;
  mutable failed : int; (* admitted requests whose future was cancelled/poisoned *)
  mutable job_failed : int; (* job enqueues/dequeues likewise *)
  mutable retries : int;
  mutable calls : int;
  mutable ta : int; (* admission decided *)
  mutable tb : int; (* store op invoked *)
}

type ctx = {
  ov : Ovl.t;
  queue : int WQ.t;
  smap : int SM.t option;
  wmap : int WM.t option;
  clients : client option array; (* filled in by each client *)
}

let now = Host.now_ns

let session ctx_smap ctx_wmap =
  match (ctx_smap, ctx_wmap) with
  | Some m, _ ->
      let h = SM.handle m in
      {
        find = SM.find h;
        insert = SM.insert h;
        remove = SM.remove h;
        flush = (fun () -> SM.flush h);
      }
  | None, Some m ->
      let h = WM.handle m in
      {
        find = WM.find h;
        insert = WM.insert h;
        remove = WM.remove h;
        flush = (fun () -> WM.flush h);
      }
  | None, None -> invalid_arg "Service_load.session"

(* The timed set-up makes the store, the job queue and the controller,
   and starts the controller. Each client makes its handles and slack
   window in its own domain when it starts (see Closed.setup). *)
let setup backend () =
  let queue = WQ.create () in
  let smap, wmap =
    match backend with
    | Sharded ->
        (Some (SM.create ~buckets ~lease:lease_s ~grant_timeout:grant_timeout_s ()), None)
    | Central -> (None, Some (WM.create ()))
  in
  let ov = Ovl.create ~cfg:overload_cfg ~epoch:epoch_s () in
  Ovl.start ov;
  { ov; queue; smap; wmap; clients = Array.make H.domains None }

let client ctx =
  let sl = Fl.Slack.create slack in
  Ovl.register_slack ctx.ov sl;
  {
    sess = session ctx.smap ctx.wmap;
    qh = WQ.handle ctx.queue;
    sl;
    rem = Values.removals H.domains;
    seq = 0;
    requests = 0;
    admitted = 0;
    shed = 0;
    completed = 0;
    failed = 0;
    job_failed = 0;
    retries = 0;
    calls = 0;
    ta = 0;
    tb = 0;
  }

(* The admission gate around one store op, through the bounded-retry
   path; writes are refused while the controller degrades the store. *)
let gated ctx c ~traced mk =
  c.calls <- 0;
  let f =
    F.retry ~attempts:retry_attempts (fun () ->
        c.calls <- c.calls + 1;
        let ok = Ovl.admit ctx.ov in
        if traced then c.ta <- now ();
        if not ok then F.rejected ()
        else begin
          let f = mk () in
          if traced then c.tb <- now ();
          f
        end)
  in
  if c.calls > 1 then c.retries <- c.retries + (c.calls - 1);
  f

let write ctx mk () = if Ovl.writes_degraded ctx.ov then F.rejected () else mk ()

let submit ctx c rng ~traced =
  let k = Workload.Rng.below rng key_range and d = Workload.Rng.below rng 10 in
  if d < 6 then P (gated ctx c ~traced (fun () -> c.sess.find k))
  else if d < 9 then P (gated ctx c ~traced (write ctx (fun () -> c.sess.insert k k)))
  else P (gated ctx c ~traced (write ctx (fun () -> c.sess.remove k)))

let complete (p : H.probe) c (P f) =
  match H.force_in_drain p f with
  | _ ->
      c.completed <- c.completed + 1;
      p.ops <- p.ops + 1;
      H.publish p;
      true
  | exception (F.Cancelled | F.Broken _) ->
      c.failed <- c.failed + 1;
      false

(* Wait for the next arrival. The CPU the wait burns is the load
   generator idling, not the system, so it is published for the harness
   to leave out of cpu_ns_per_op. *)
let wait_arrival (p : H.probe) stamp =
  if Host.now_ns () < stamp then begin
    let c0 = Host.thread_cpu_ns () in
    Workload.Arrival.wait_until stamp;
    Atomic.set p.idle_cpu (Atomic.get p.idle_cpu + (Host.thread_cpu_ns () - c0))
  end

let request ctx (p : H.probe) c rng sched ~traced =
  let stamp = Workload.Arrival.next_arrival_ns sched in
  wait_arrival p stamp;
  let b = p.spans and req = c.requests in
  c.requests <- req + 1;
  (* The request's root span and its admission child are reserved now
     and closed once the gate (retries included) has decided. *)
  let root, admit =
    if not traced then (-1, -1)
    else begin
      let t1 = now () in
      let root = Spans.start b ~name:Spans.request ~parent:(-1) ~req ~t0:stamp in
      Spans.add b ~name:Spans.queueing ~parent:root ~req ~t0:stamp ~t1;
      c.ta <- t1;
      c.tb <- t1;
      (root, Spans.start b ~name:Spans.admit ~parent:root ~req ~t0:t1)
    end
  in
  let note = if traced then H.traced_note p c.sl else Fl.Slack.note c.sl in
  let (P f as pf) = submit ctx c rng ~traced in
  Spans.finish b admit ~t1:c.ta;
  if F.is_rejected f then begin
    c.shed <- c.shed + 1;
    if traced then Spans.finish b root ~t1:c.ta
  end
  else begin
    c.admitted <- c.admitted + 1;
    let tb = c.tb in
    if traced then begin
      Spans.add b ~name:Spans.store ~parent:root ~req ~t0:c.ta ~t1:tb;
      p.n_inv <- p.n_inv + 1;
      if F.is_ready f then p.ready_inv <- p.ready_inv + 1
    end;
    let ticket = Values.value ~tid:p.tid ~seq:c.seq in
    c.seq <- c.seq + 1;
    let jf = WQ.enqueue c.qh ticket in
    note (fun () ->
        match H.force_in_drain p jf with
        | () -> ()
        | exception (F.Cancelled | F.Broken _) -> c.job_failed <- c.job_failed + 1);
    if traced then begin
      let tc = now () in
      Spans.add b ~name:Spans.jobq ~parent:root ~req ~t0:tb ~t1:tc;
      note (fun () ->
          H.count_force p f;
          let t5 = now () in
          let ok = complete p c pf in
          let t6 = now () in
          if ok then H.record_lat p (t6 - stamp);
          Spans.add b ~name:Spans.window ~parent:root ~req ~t0:tc ~t1:t5;
          Spans.add b ~name:Spans.force ~parent:root ~req ~t0:t5 ~t1:t6;
          Spans.finish b root ~t1:t6)
    end
    else
      note (fun () -> if complete p c pf then H.record_lat p (now () - stamp))
  end;
  if req mod drain_every = drain_every - 1 then
    for _ = 1 to drain_every do
      let df = WQ.dequeue c.qh in
      note (fun () ->
          match H.force_in_drain p df with
          | Some v -> Values.note_removed c.rem v
          | None -> ()
          | exception (F.Cancelled | F.Broken _) -> c.job_failed <- c.job_failed + 1)
    done

let worker ~seed ctx (p : H.probe) =
  let c = client ctx in
  ctx.clients.(p.tid) <- Some c;
  let rng = Workload.Rng.create ~seed ~stream:(p.tid + 1) in
  let sched =
    Workload.Arrival.schedule (Workload.Arrival.Poisson { rate = rate_per_domain }) ~rng
  in
  let rec loop () =
    let ph = H.observe p in
    if ph = H.stop then begin
      Fl.Slack.drain c.sl;
      c.sess.flush ();
      WQ.flush c.qh
    end
    else begin
      request ctx p c rng sched ~traced:(ph = H.traced);
      loop ()
    end
  in
  loop ()

(* Public counters sampled at window boundaries. *)
let api_names =
  [| "cas"; "offered"; "sheds"; "epochs"; "retries"; "stage"; "shard.requests";
     "shard.grants"; "shard.retries"; "shard.degraded"; "shard.recovers"; "shard.poisoned" |]

let api ctx =
  let cas =
    Lockfree.Ms_queue.cas_count (WQ.shared ctx.queue)
    + match ctx.wmap with Some m -> HK.cas_count (WM.shared m) | None -> 0
  in
  let shard =
    match ctx.smap with
    | Some m ->
        let s = SM.stats m in
        [| s.SM.requests; s.SM.grants; s.SM.retries; s.SM.degraded_finds; s.SM.recovers; s.SM.poisoned |]
    | None -> Array.make 6 0
  in
  Array.append
    [|
      cas;
      Ovl.offered ctx.ov;
      Ovl.sheds ctx.ov;
      Ovl.epochs ctx.ov;
      Array.fold_left (fun n c -> n + Option.fold ~none:0 ~some:(fun c -> c.retries) c) 0 ctx.clients;
      Ovl.stage_index (Ovl.stage ctx.ov);
    |]
    shard

let api_index name =
  let rec go i = if api_names.(i) = name then i else go (i + 1) in
  go 0

let impl backend ~seed =
  {
    H.setup = setup backend;
    discard = (fun ctx -> Ovl.stop ctx.ov);
    worker = worker ~seed;
    api;
    (* The controller keeps Obs on; the alt window turns it off. *)
    flip_obs = (fun on -> Obs.set_enabled (not on));
    on_quiescent = None;
  }

(* After the clients have drained: settle in-flight transfers, stop the
   controller and check the books and the job tickets. *)
let checks ctx =
  (match ctx.smap with
  | None -> ()
  | Some m ->
      let h = SM.handle m in
      let deadline = Sync.Mono.now () +. 5.0 in
      let b = Sync.Backoff.create () in
      while SM.in_flight m > 0 && Sync.Mono.now () < deadline do
        ignore (SM.recover_all h);
        Sync.Backoff.once b
      done);
  Ovl.stop ctx.ov;
  let clients = Array.map Option.get ctx.clients in
  let sum f = Array.fold_left (fun n c -> n + f c) 0 clients in
  let requests = sum (fun c -> c.requests)
  and admitted = sum (fun c -> c.admitted)
  and shed = sum (fun c -> c.shed)
  and completed = sum (fun c -> c.completed)
  and failed = sum (fun c -> c.failed) in
  let books =
    if admitted + shed <> requests then
      Some (Printf.sprintf "%d admitted + %d shed <> %d requests" admitted shed requests)
    else if completed + failed <> admitted then
      Some (Printf.sprintf "%d admitted but %d completed + %d failed" admitted completed failed)
    else None
  in
  let tickets =
    Values.check
      (Array.map (fun c -> c.rem) clients)
      ~added:(Array.map (fun c -> c.seq) clients)
      ~contents:(Lockfree.Ms_queue.to_list (WQ.shared ctx.queue))
  in
  ([ ("books", books); ("tickets", tickets) ], requests, failed + shed + sum (fun c -> c.job_failed))
