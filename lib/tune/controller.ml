(* The online controller: a policy on the shared epoch loop
   (Epoch). Each epoch's Obs.Metrics diff is distilled into a
   Policy.observation, and each registered dial's vote machine runs on
   it — setting the dial through its own concurrent-safe setter when a
   move fires.

   Failure semantics are deliberately one-sided: every knob setter
   clamps, every dial is wrapped so one bad dial cannot kill the loop,
   and a controller death (an injected Faults.Killed at "tune.epoch", or
   anything else) simply ends the loop — the structures keep running
   with the last-good configuration, because the knobs live in the
   structures, not in the controller. Nothing here runs on a structure
   hot path. *)

type target = { dial : Fl.Tunable.dial; votes : Policy.votes }

type t = {
  cfg : Policy.config;
  targets : target list Atomic.t; (* CAS-push; never removed *)
  (* Warm-start memory: the last value this controller set for each
     (kind, name) dial identity. A freshly-registered dial with a known
     identity is initialized to that remembered value, so short-lived
     workers (or per-repeat structures in a benchmark) inherit the
     converged configuration instead of re-paying the search ramp. *)
  remembered : (Fl.Tunable.kind * string, int) Hashtbl.t;
  mem_lock : Mutex.t;
  decisions : int Atomic.t;
  loop : Epoch.t;
}

let default_epoch = 0.005

let create ?(cfg = Policy.default) ?(epoch = default_epoch) () =
  let loop =
    Epoch.create ~owner:"Controller" ~point:"tune.epoch" ~period:epoch
  in
  {
    cfg;
    targets = Atomic.make [];
    remembered = Hashtbl.create 8;
    mem_lock = Mutex.create ();
    decisions = Atomic.make 0;
    loop;
  }

let remember t (dial : Fl.Tunable.dial) v =
  Mutex.lock t.mem_lock;
  Hashtbl.replace t.remembered (dial.kind, dial.name) v;
  Mutex.unlock t.mem_lock

let recall t (dial : Fl.Tunable.dial) =
  Mutex.lock t.mem_lock;
  let v = Hashtbl.find_opt t.remembered (dial.kind, dial.name) in
  Mutex.unlock t.mem_lock;
  v

let add_dial t dial =
  let tgt = { dial; votes = Policy.new_votes () } in
  let rec push () =
    let cur = Atomic.get t.targets in
    if not (Atomic.compare_and_set t.targets cur (tgt :: cur)) then push ()
  in
  push ();
  (* Warm start: a dial identity the controller has already steered jumps
     straight to the last value set for it (the setter clamps). *)
  match recall t dial with
  | Some v -> ( try dial.set v with _ -> Epoch.error t.loop)
  | None -> ()

let add_dials t dials = List.iter (add_dial t) dials
let dial_count t = List.length (Atomic.get t.targets)
let epochs t = Epoch.epochs t.loop
let decisions t = Atomic.get t.decisions
let errors t = Epoch.errors t.loop

(* One control epoch's decisions over a metrics diff. *)
let decide t d =
  let o = Policy.observe d in
  List.iter
    (fun tgt ->
      (* A dial whose closures raise (a structure torn down under the
         controller) must not take the whole loop down with it. *)
      match Policy.decide t.cfg tgt.dial tgt.votes o with
      | Some v ->
          tgt.dial.set v;
          remember t tgt.dial v;
          Atomic.incr t.decisions
      | None -> ()
      | exception _ -> Epoch.error t.loop)
    (Atomic.get t.targets)

let step t = Epoch.step t.loop (decide t)
let start t = Epoch.start t.loop (decide t)
let stop t = Epoch.stop t.loop
let running t = Epoch.running t.loop
