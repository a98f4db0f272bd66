type order = Newest_first | Oldest_first

type t = {
  mutable slack : int;
  order : order;
  window : (unit -> unit) Opbuf.t; (* oldest first *)
  mutable draining : bool;
}

let create ?(order = Newest_first) slack =
  if slack < 1 then invalid_arg "Slack.create: slack must be >= 1";
  { slack; order; window = Opbuf.create (); draining = false }

let slack t = t.slack

(* Retuning entry point (the admission controller's squeeze). A [t] is
   owned by one thread, but the controller writes from its own domain: a
   single immediate-int store is atomic in OCaml, and the owner merely
   drains earlier or later by one window — both orders are FL-correct,
   so no fence is needed. Shrinking below the current fill takes effect
   at the owner's next [note]. *)
let set_slack t n = t.slack <- (if n < 1 then 1 else n)

let pending t = Opbuf.length t.window

(* Pop each thunk before it runs, so one that raises has left the window
   and the rest stay pending. A thunk noted reentrantly (an evaluator
   issuing follow-up operations) is pushed onto this same ring and runs
   in this same loop. *)
let rec force_window t =
  if not (Opbuf.is_empty t.window) then begin
    let force =
      match t.order with
      | Newest_first -> Opbuf.pop_back t.window
      | Oldest_first ->
          let f = Opbuf.get t.window 0 in
          Opbuf.drop_front t.window 1;
          f
    in
    force ();
    force_window t
  end

(* Force [fill] — the thunk that filled the window, never stored — and
   the window: [fill] first when forcing newest first, last when forcing
   oldest first. Forcing newest first, the first force reaches the
   deepest pending operation, so implementations that evaluate "until F
   is ready" (the medium-FL queue and list) resolve the whole window in
   one combined flush — the remaining forces find their futures already
   fulfilled. Forcing oldest-first degrades every evaluation to a single
   operation and disables the intra-evaluation optimizations of §4
   (ablation D). If a thunk raises before [fill] ran, [fill] is kept
   pending in its place. *)
let drain_with t fill =
  t.draining <- true;
  match
    match t.order with
    | Newest_first ->
        fill ();
        force_window t
    | Oldest_first -> (
        match force_window t with
        | () ->
            fill ();
            force_window t
        | exception e ->
            Opbuf.push t.window fill;
            raise e)
  with
  | () -> t.draining <- false
  | exception e ->
      t.draining <- false;
      raise e

let drain t =
  if not t.draining then begin
    Obs.splice ~kind:Obs.Event.k_slack_drain ~n:(Opbuf.length t.window);
    drain_with t ignore
  end

let abandon t =
  (* Recovery path: the owner is dead, so the registered force thunks
     must never run (each would re-enter the dead owner's handle). The
     futures they would have forced are poisoned by the handle's own
     [abandon]; here we just drop the thunks. *)
  let n = Opbuf.length t.window in
  Opbuf.clear t.window;
  n

let note t force =
  if t.draining || Opbuf.length t.window < t.slack - 1 then
    Opbuf.push t.window force
  else begin
    Obs.splice ~kind:Obs.Event.k_slack_drain ~n:(Opbuf.length t.window + 1);
    drain_with t force
  end
