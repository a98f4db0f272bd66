(* The run protocol shared by every workload: timed set-up, two client
   domains (client 0 is the main domain) driven through phases, window
   boundaries sampled by client 0, and per-domain probes that collect
   samples without synchronisation.

   Phases, in order (a run skips the ones it does not need):
   - warmup  : load runs, nothing is measured;
   - measure : the timed windows; end-to-end metrics come from here;
   - alt     : windows with the Obs switch flipped (on for closed loops,
               off for the service), for obs.overhead_pct;
   - pause   : clients drain their windows and wait (quiescence);
   - cert    : every op recorded for the linearizability certificate;
   - traced  : windows with the benchmark's spans on;
   - stop    : clients drain and return. *)

let warmup = 0
let measure = 1
let alt = 2
let pause = 3
let cert = 4
let traced = 5
let stop = 6
let phases = 7

type config = {
  seed : int;
  seconds : float; (* measured time *)
  window_s : float; (* length of one window *)
  warmup_s : float;
  trace : bool; (* run the alt, cert and traced phases *)
  setups : int;
  cert_ops : int; (* per domain *)
  smoke : bool;
}

(* The measured time is cut into short windows: on a shared host the
   CPU's speed swings by up to 2x within seconds, and the end-to-end
   metrics read the best windows (see README.md). The obs and traced
   phases each get a fifth as many windows. *)
let windows c = max 1 (Float.to_int (Float.round (c.seconds /. c.window_s)))
let side_windows c = max 1 (windows c / 5)
let domains = 2

(* ------------------------------ probes ------------------------------- *)

type shared = {
  phase : int Atomic.t;
  acks : int Atomic.t;
  crashed : string option Atomic.t; (* a client's exception, with backtrace *)
}

(* Per-domain measurement state. Written only by its domain, except the
   atomics, which client 0 reads at window boundaries. *)
type probe = {
  tid : int;
  sh : shared;
  completed : int Atomic.t; (* ops, or completed requests; published *)
  idle_cpu : int Atomic.t; (* CPU ns spent waiting for arrivals; published *)
  lat : int array; (* latency samples (ns), measure phase only *)
  lat_n : int Atomic.t;
  (* The trace buffers below are allocated by [arm] after the measured
     windows, so they never count towards peak RSS. *)
  mutable spans : Spans.t;
  mutable drain_self : int array; (* self time of sampled drains (ns) *)
  mutable drain_self_n : int;
  mutable drains : int;
  mutable span_every : int; (* trace 1 op (and 1 drain) in this many *)
  mutable in_drain : bool;
  mutable drain_acc : int; (* force time inside the open sampled drain *)
  mutable ready_inv : int;
  mutable n_inv : int;
  mutable ready_force : int;
  mutable n_force : int;
  words_at : float array; (* Gc.minor_words when each phase was entered *)
  ops_at : int array;
  mutable seen : int; (* last phase this domain observed *)
  mutable tick : unit -> unit; (* client 0 steps the run's phases *)
  mutable ops : int; (* unpublished op count *)
  (* certificate recording: event code, start, stop *)
  mutable c_ev : int array;
  mutable c_start : int array;
  mutable c_stop : int array;
  mutable c_n : int;
}

(* Made together, so padded: two clients' probes must not share a cache
   line. *)
let probe ~sh ~tid ~lat =
  Sync.Padded.copy_as_padded
  {
    tid;
    sh;
    completed = Sync.Padded.atomic 0;
    idle_cpu = Sync.Padded.atomic 0;
    lat = Array.make lat 0;
    lat_n = Sync.Padded.atomic 0;
    spans = Spans.create 0;
    drain_self = [||];
    drain_self_n = 0;
    drains = 0;
    span_every = 64;
    in_drain = false;
    drain_acc = 0;
    ready_inv = 0;
    n_inv = 0;
    ready_force = 0;
    n_force = 0;
    words_at = Array.make phases nan;
    ops_at = Array.make phases 0;
    seen = -1;
    tick = ignore;
    ops = 0;
    c_ev = [||];
    c_start = [||];
    c_stop = [||];
    c_n = 0;
  }

(* Called by client 0 before the phase that uses the buffers; the phase
   change publishes them to client 1. *)
let arm p ~spans ~cert ~every =
  p.spans <- Spans.create spans;
  p.span_every <- every;
  p.drain_self <- Array.make (spans / 4) 0;
  p.c_ev <- Array.make cert 0;
  p.c_start <- Array.make cert 0;
  p.c_stop <- Array.make cert 0

(* Read the phase; on entering a new one, note this domain's allocation
   and op count so words per op can be scoped to a phase. *)
let observe p =
  p.tick ();
  let ph = Atomic.get p.sh.phase in
  if ph <> p.seen then begin
    p.seen <- ph;
    p.words_at.(ph) <- Gc.minor_words ();
    p.ops_at.(ph) <- p.ops
  end;
  ph

let publish p = Atomic.set p.completed p.ops

let record_lat p v =
  if p.seen = measure then begin
    let n = Atomic.get p.lat_n in
    if n < Array.length p.lat then begin
      p.lat.(n) <- v;
      Atomic.set p.lat_n (n + 1)
    end
  end

let record_drain_self p v =
  if p.drain_self_n < Array.length p.drain_self then begin
    p.drain_self.(p.drain_self_n) <- v;
    p.drain_self_n <- p.drain_self_n + 1
  end

let count_force p f =
  p.n_force <- p.n_force + 1;
  if Futures.Future.is_ready f then p.ready_force <- p.ready_force + 1

(* Force, adding the time to the open sampled drain, if any. *)
let force_in_drain p f =
  if p.in_drain then begin
    let t = Host.now_ns () in
    let r = Futures.Future.force f in
    p.drain_acc <- p.drain_acc + (Host.now_ns () - t);
    r
  end
  else Futures.Future.force f

(* Fl.Slack.note while traced: one window-draining note in [span_every]
   becomes an fl.drain span. Forces inside it add their time to [drain_acc], so
   the drain's self time is the window's own bookkeeping. *)
let traced_note p sl thunk =
  if Fl.Slack.pending sl + 1 >= Fl.Slack.slack sl then begin
    p.drains <- p.drains + 1;
    if p.drains land (p.span_every - 1) = 0 then begin
      p.in_drain <- true;
      p.drain_acc <- 0;
      let t0 = Host.now_ns () in
      Fl.Slack.note sl thunk;
      let t1 = Host.now_ns () in
      p.in_drain <- false;
      Spans.add p.spans ~name:Spans.drain ~parent:(-1) ~req:p.drains ~t0 ~t1;
      record_drain_self p (t1 - t0 - p.drain_acc)
    end
    else Fl.Slack.note sl thunk
  end
  else Fl.Slack.note sl thunk

(* Acknowledge quiescence (the caller has drained its windows) and wait
   until the run moves on from phase [ph]. *)
let park p ph =
  Atomic.incr p.sh.acks;
  while Atomic.get p.sh.phase = ph do
    p.tick ();
    Unix.sleepf 1e-4
  done

(* ------------------------------ the run ------------------------------ *)

type 'ctx impl = {
  setup : unit -> 'ctx; (* timed: structures, prefill, controller *)
  discard : 'ctx -> unit; (* release an extra set-up *)
  worker : 'ctx -> probe -> unit; (* one client domain, until [stop] *)
  api : 'ctx -> int array; (* public counters, sampled at boundaries *)
  flip_obs : bool -> unit; (* alt window: true on entry, false on exit *)
  on_quiescent : ('ctx -> unit) option; (* certificate workloads only *)
}

type sample = {
  wall : int;
  cpu : int; (* process CPU, less the clients' arrival waits *)
  done_ : int;
  lat_n : int array;
  stat : Host.stat;
  api : int array;
  obs : Obs.Metrics.snapshot;
}

type 'ctx result = {
  ctx : 'ctx;
  setup_s : float array;
  windows : (sample * sample) array; (* measure phase *)
  alt_ws : (sample * sample) array; (* empty unless traced *)
  traced_ws : (sample * sample) array;
  cert_s : float; (* wall time of the cert phase *)
  maxrss_kb : int;
  probes : probe array;
}

(* ---------------------------- window views ---------------------------- *)

let secs (a, b) = float_of_int (b.wall - a.wall) /. 1e9
let done_in (a, b) = b.done_ - a.done_
let rate w = float_of_int (done_in w) /. secs w

let cpu_per_op (a, b) =
  let n = b.done_ - a.done_ in
  if n <= 0 then nan else float_of_int (b.cpu - a.cpu) /. float_of_int n

let steal (a, b) = Host.steal_pct a.stat b.stat
let util (a, b) = Host.cpu_util a.stat b.stat

(* The latency samples both domains recorded within a window. *)
let window_lat probes (a, b) =
  let parts =
    Array.mapi
      (fun d p -> Array.sub p.lat a.lat_n.(d) (b.lat_n.(d) - a.lat_n.(d)))
      probes
  in
  Array.map float_of_int (Array.concat (Array.to_list parts))

(* A run of consecutive windows as one, first start to last end. *)
let span ws = (fst ws.(0), snd ws.(Array.length ws - 1))

let api_delta (a, b) i = b.api.(i) - a.api.(i)

(* Minor words per op over the measure phase, all client domains. *)
let words_per_op probes =
  let w = ref 0.0 and n = ref 0 in
  Array.iter
    (fun p ->
      let next =
        let rec find ph =
          if ph >= phases then None
          else if Float.is_nan p.words_at.(ph) then find (ph + 1)
          else Some ph
        in
        find (measure + 1)
      in
      match next with
      | Some ph when not (Float.is_nan p.words_at.(measure)) ->
          w := !w +. (p.words_at.(ph) -. p.words_at.(measure));
          n := !n + (p.ops_at.(ph) - p.ops_at.(measure))
      | _ -> ())
    probes;
  if !n = 0 then 0.0 else !w /. float_of_int !n

exception Failed of string

let run (cfg : config) (impl : 'ctx impl) ~probe_sizes =
  (* Each set-up sample is the mean of a batch of set-ups filling at least
     10 ms (one in smoke runs), so a set-up of a few microseconds is not
     lost in clock and cache noise. Batches are 90 ms apart, spreading
     the samples over about two seconds of the host's speed swings. Only
     the set-up calls are timed; the last instance is the one measured. *)
  let ctx = ref None in
  let batch i =
    if i > 0 && not cfg.smoke then Unix.sleepf 0.09;
    Gc.full_major ();
    let start = Host.now_ns () and timed = ref 0 and n = ref 0 in
    while !n = 0 || ((not cfg.smoke) && Host.now_ns () - start < 10_000_000) do
      (* Release the previous instance first, and let its teardown (a
         stopped controller domain) settle before the next is timed. *)
      Option.iter
        (fun c ->
          impl.discard c;
          Unix.sleepf 0.002)
        !ctx;
      let t0 = Host.now_ns () in
      ctx := Some (impl.setup ());
      timed := !timed + (Host.now_ns () - t0);
      incr n
    done;
    float_of_int !timed /. float_of_int !n /. 1e9
  in
  let setup_s = Array.init cfg.setups batch in
  let ctx = Option.get !ctx in
  let sh = { phase = Atomic.make warmup; acks = Atomic.make 0; crashed = Atomic.make None } in
  let lat_cap, span_cap, cert_cap = probe_sizes in
  let probes = Array.init domains (fun tid -> probe ~sh ~tid ~lat:lat_cap) in
  let sample () =
    {
      wall = Host.now_ns ();
      cpu =
        Host.cpu_ns () - Array.fold_left (fun n (p : probe) -> n + Atomic.get p.idle_cpu) 0 probes;
      done_ = Array.fold_left (fun n (p : probe) -> n + Atomic.get p.completed) 0 probes;
      lat_n = Array.map (fun (p : probe) -> Atomic.get p.lat_n) probes;
      stat = Host.stat ();
      api = impl.api ctx;
      obs = Obs.Metrics.snapshot ();
    }
  in
  (* The phases run as a plan of steps, each returning true once done,
     stepped by client 0 — the main domain — from [observe] and [park].
     So the only other domains are client 1 and the program's own (the
     service's controller): every minor collection stops all domains,
     and a third one sleeping through the run would have to be woken
     for each. *)
  let marks = ref [] in
  let mark () = marks := sample () :: !marks in
  let close () =
    let s = Array.of_list (List.rev !marks) in
    marks := [];
    Array.init (Array.length s - 1) (fun i -> (s.(i), s.(i + 1)))
  in
  let enter ph () =
    Atomic.set sh.phase ph;
    mark ()
  in
  let after secs =
    let deadline = ref 0 in
    fun () ->
      let now = Host.now_ns () in
      if !deadline = 0 then deadline := now + Float.to_int (secs *. 1e9);
      now >= !deadline
  in
  let act f () =
    f ();
    true
  in
  let timed n = List.concat (List.init n (fun _ -> [ after cfg.window_s; act mark ])) in
  (* Both clients acknowledge, within a generous bound so a wedged client
     fails the run instead of hanging it. *)
  let acks what =
    let deadline = ref 0 in
    fun () ->
      let now = Host.now_ns () in
      if !deadline = 0 then deadline := now + 60_000_000_000;
      if Atomic.get sh.acks >= domains then begin
        Atomic.set sh.acks 0;
        true
      end
      else if now > !deadline then raise (Failed ("a client stalled in " ^ what))
      else false
  in
  let measure_ws = ref [||] and alt_ws = ref [||] and traced_ws = ref [||] in
  let maxrss_kb = ref 0 and cert_s = ref 0.0 and cert_t0 = ref 0 in
  let arm_all () =
    let cert_cap = if Option.is_some impl.on_quiescent then cert_cap else 0 in
    (* Trace 1 op in 64, or fewer when the measured rate would fill half
       the span buffers in the traced phase (a sampled op records 4
       spans, its drain 1). *)
    let fastest = Array.fold_left (fun m w -> Float.max m (rate w)) 0.0 !measure_ws in
    let need =
      fastest /. float_of_int domains *. float_of_int (side_windows cfg) *. cfg.window_s *. 5.0
      /. float_of_int (span_cap / 2)
    in
    let rec every e = if float_of_int e >= need then e else every (2 * e) in
    Array.iter (arm ~spans:span_cap ~cert:cert_cap ~every:(every 64)) probes
  in
  let cert_steps =
    match impl.on_quiescent with
    | None -> []
    | Some f ->
        [
          act (fun () -> Atomic.set sh.phase pause);
          acks "quiescing before the certificate phase";
          act (fun () ->
              f ctx;
              cert_t0 := Host.now_ns ();
              Atomic.set sh.phase cert);
          acks "the certificate phase";
          act (fun () -> cert_s := float_of_int (Host.now_ns () - !cert_t0) /. 1e9);
        ]
  in
  let traced_steps =
    if not cfg.trace then []
    else
      [ act arm_all; act (fun () -> impl.flip_obs true); act (enter alt) ]
      @ timed (side_windows cfg)
      @ [ act (fun () -> impl.flip_obs false; alt_ws := close ()) ]
      @ cert_steps
      @ [ act (enter traced) ]
      @ timed (side_windows cfg)
      @ [ act (fun () -> traced_ws := close ()) ]
  in
  let plan =
    Array.of_list
      ([ after cfg.warmup_s; act (enter measure) ]
      @ timed (windows cfg)
      @ [ act (fun () -> measure_ws := close (); maxrss_kb := Host.maxrss_kb ()) ]
      @ traced_steps
      @ [ act (fun () -> Atomic.set sh.phase stop) ])
  in
  let cur = ref 0 in
  probes.(0).tick <-
    (fun () ->
      Option.iter (fun e -> raise (Failed e)) (Atomic.get sh.crashed);
      while !cur < Array.length plan && plan.(!cur) () do
        incr cur
      done);
  let client1 =
    Domain.spawn (fun () ->
        try impl.worker ctx probes.(1)
        with e ->
          let msg = Printexc.to_string e ^ "\n" ^ Printexc.get_backtrace () in
          ignore (Atomic.compare_and_set sh.crashed None (Some msg)))
  in
  let stop_client1 () =
    Atomic.set sh.phase stop;
    Domain.join client1
  in
  (match impl.worker ctx probes.(0) with
  | () -> stop_client1 ()
  | exception e ->
      let msg = Printexc.to_string e ^ "\n" ^ Printexc.get_backtrace () in
      stop_client1 ();
      raise (match e with Failed _ -> e | _ -> Failed msg));
  Option.iter (fun e -> raise (Failed e)) (Atomic.get sh.crashed);
  {
    ctx;
    setup_s;
    windows = !measure_ws;
    alt_ws = !alt_ws;
    traced_ws = !traced_ws;
    cert_s = !cert_s;
    maxrss_kb = !maxrss_kb;
    probes;
  }
