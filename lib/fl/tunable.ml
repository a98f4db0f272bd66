(* The controller-facing face of a runtime knob. Each tunable structure
   exposes its knobs as [dial]s — a clamped integer range plus get/set
   closures — so the Tune controller can steer any structure without
   depending on its module (and [Combining], which sits below [Fl] in
   the dependency order, contributes dials through plain closures). *)

type kind =
  | Slack_window (* Slack.set_slack: ops left pending before a drain *)
  | Fc_pass_budget (* Flat_combining.set_pass_budget *)
  | Fc_scan_limit (* Flat_combining.set_scan_limit (0 = unlimited) *)

let kind_name = function
  | Slack_window -> "slack-window"
  | Fc_pass_budget -> "fc-pass-budget"
  | Fc_scan_limit -> "fc-scan-limit"

type dial = {
  kind : kind;
  name : string;
  lo : int; (* inclusive bound the controller must respect *)
  hi : int;
  get : unit -> int;
  set : int -> unit; (* implementations clamp again defensively *)
}

(* Ceiling on slack: beyond a few thousand pending ops the window's
   drain cost dwarfs any further amortization win. *)
let slack_hi = 4096
let fc_pass_budget_hi = 64
let fc_scan_limit_hi = 1024

let of_slack ?(name = "slack") s =
  {
    kind = Slack_window;
    name;
    lo = 1;
    hi = slack_hi;
    get = (fun () -> Slack.slack s);
    set = (fun n -> Slack.set_slack s n);
  }

let of_fc ?(name = "fc") ~pass_budget ~set_pass_budget ~scan_limit
    ~set_scan_limit () =
  [
    {
      kind = Fc_pass_budget;
      name = name ^ ".pass-budget";
      lo = 1;
      hi = fc_pass_budget_hi;
      get = pass_budget;
      set = set_pass_budget;
    };
    (* The dial's top of range means "unbounded": the structure's 0
       (scan limit off, no cursor bookkeeping at all) is surfaced as
       [hi], so hill-climbing Up past every bounded setting lands back
       on the zero-overhead full scan instead of a large-but-still-
       bounded one. The controller never sees the raw 0. *)
    {
      kind = Fc_scan_limit;
      name = name ^ ".scan-limit";
      lo = 8;
      hi = fc_scan_limit_hi;
      get =
        (fun () ->
          let v = scan_limit () in
          if v = 0 then fc_scan_limit_hi else v);
      set =
        (fun n -> set_scan_limit (if n >= fc_scan_limit_hi then 0 else n));
    };
  ]
