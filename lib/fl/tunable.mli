(** Dials: the controller-facing face of the runtime knobs.

    Each tunable structure exposes its knobs as {!dial}s — a [kind]
    identifying which control policy applies, a clamped integer range,
    and get/set closures — so the Tune controller can steer any
    structure without depending on its module. The set closures are the
    concurrent-safe setters ({!Slack.set_slack},
    {!Combining.Flat_combining.set_pass_budget} / [set_scan_limit]),
    each of which clamps again defensively. *)

type kind =
  | Slack_window
  | Fc_pass_budget
  | Fc_scan_limit

val kind_name : kind -> string

type dial = {
  kind : kind;
  name : string;
  lo : int;
  hi : int;
  get : unit -> int;
  set : int -> unit;
}

val of_slack : ?name:string -> Slack.t -> dial

val of_fc :
  ?name:string ->
  pass_budget:(unit -> int) ->
  set_pass_budget:(int -> unit) ->
  scan_limit:(unit -> int) ->
  set_scan_limit:(int -> unit) ->
  unit ->
  dial list
(** Two dials over a flat-combining engine, passed as closures because
    [Combining] sits below [Fl] in the dependency order. The scan-limit
    dial surfaces the structure's 0 ("no limit, no cursor bookkeeping")
    as its top of range, so climbing Up past every bounded setting
    restores the zero-overhead full scan. *)
