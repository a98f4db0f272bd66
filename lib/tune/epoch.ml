(* See epoch.mli. Epoch bookkeeping ([last]) is touched only by whoever
   calls [step] — the background domain once [start]ed, or a test
   driving epochs by hand (never both). *)

type t = {
  owner : string;
  point : string;
  period : float;
  mutable last : Obs.Metrics.snapshot;
  epochs : int Atomic.t;
  errors : int Atomic.t;
  stop_flag : bool Atomic.t;
  mutable domain : unit Domain.t option;
  mutable obs_was_enabled : bool;
}

let create ~owner ~point ~period =
  if period <= 0.0 then invalid_arg (owner ^ ".create: epoch must be > 0");
  {
    owner;
    point;
    period;
    last = Obs.Metrics.snapshot ();
    epochs = Atomic.make 0;
    errors = Atomic.make 0;
    stop_flag = Atomic.make false;
    domain = None;
    obs_was_enabled = true;
  }

let epochs t = Atomic.get t.epochs
let errors t = Atomic.get t.errors
let error t = Atomic.incr t.errors
let running t = Option.is_some t.domain

let step t policy =
  let now = Obs.Metrics.snapshot () in
  let d = Obs.Metrics.diff now t.last in
  t.last <- now;
  policy d;
  Atomic.incr t.epochs

let start t policy =
  if running t then invalid_arg (t.owner ^ ".start: already running");
  (* The policy is the telemetry's consumer: observing requires the
     switch on. Remember the prior state so [stop] restores it. *)
  t.obs_was_enabled <- Obs.enabled ();
  if not t.obs_was_enabled then Obs.set_enabled true;
  Atomic.set t.stop_flag false;
  t.last <- Obs.Metrics.snapshot ();
  t.domain <-
    Some
      (Domain.spawn (fun () ->
           try
             while not (Atomic.get t.stop_flag) do
               (* Kill point: a Faults plan can murder the loop here. The
                  exception ends this domain only — the policy's last
                  decisions stay where it published them. *)
               Faults.point t.point;
               step t policy;
               Unix.sleepf t.period
             done
           with _ -> Atomic.incr t.errors))

let stop t =
  match t.domain with
  | None -> ()
  | Some d ->
      Atomic.set t.stop_flag true;
      Domain.join d;
      t.domain <- None;
      if not t.obs_was_enabled then Obs.set_enabled false
