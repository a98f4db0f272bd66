(* Open-loop arrival schedules for the service layer and its benchmark.

   The schedule (type [schedule]) produces the {e intended} arrival time
   of every request up front, independent of how fast the system absorbs
   them — when the system falls behind, requests queue (and their
   sojourn clocks keep running from the intended stamp), which is what
   makes the recorded latency coordinated-omission-safe.

   Gaps are waited out with [Sync.Mono.wait_until_ns]: a sleep for the
   part of the gap a sleep cannot overshoot, then a loop that yields the
   core, so a request issues within a few µs of its stamp and a waiter
   never starves a thread it shares a core with. *)

(* Wait until the monotonic clock reaches [deadline_ns]; returns
   immediately when the deadline is already past (the open-loop
   generator is behind — it must issue, not skip). *)
let wait_until deadline_ns =
  Faults.point "arrival.wait";
  Sync.Mono.wait_until_ns deadline_ns

type process =
  | Periodic of { rate : float }
  | Poisson of { rate : float }
  | Burst of { rate : float; burst : int }

let check_rate ctx rate =
  if not (Float.is_finite rate) || rate <= 0.0 then
    invalid_arg (ctx ^ ": rate must be positive and finite")

let validate = function
  | Periodic { rate } -> check_rate "Arrival.Periodic" rate
  | Poisson { rate } -> check_rate "Arrival.Poisson" rate
  | Burst { rate; burst } ->
      check_rate "Arrival.Burst" rate;
      if burst < 1 then invalid_arg "Arrival.Burst: burst must be >= 1"

let process_to_string = function
  | Periodic { rate } -> Printf.sprintf "periodic-%.0f/s" rate
  | Poisson { rate } -> Printf.sprintf "poisson-%.0f/s" rate
  | Burst { rate; burst } -> Printf.sprintf "burst-%dx%.0f/s" burst rate

(* Nanoseconds per event at [rate] events/sec. Never divides by zero
   ([validate] bounds the rate away from it) and saturates to a zero gap
   at very high rates instead of going negative: arrivals then all carry
   the same intended stamp, the open-loop limit of infinite offered
   load. *)
let gap_ns ~rate ~scale =
  let g = scale /. rate *. 1e9 in
  if Float.is_finite g && g > 0.0 then int_of_float g else 0

type schedule = {
  process : process;
  rng : Rng.t;
  mutable next_ns : int; (* intended stamp of the next arrival *)
  mutable in_burst : int; (* arrivals left in the current burst *)
}

let schedule ?start_ns process ~rng =
  validate process;
  let start =
    match start_ns with Some s -> s | None -> Sync.Mono.now_ns_int ()
  in
  let in_burst = match process with Burst { burst; _ } -> burst | _ -> 0 in
  { process; rng; next_ns = start; in_burst }

(* Intended stamp of the next arrival; monotonically nondecreasing. *)
let next_arrival_ns s =
  let stamp = s.next_ns in
  (match s.process with
  | Periodic { rate } -> s.next_ns <- stamp + gap_ns ~rate ~scale:1.0
  | Poisson { rate } ->
      (* Exponential interarrival: -ln(1-u)/rate. [u] is in [0,1), so
         log1p (-u) is finite and the gap is >= 0; u = 0 gives a zero
         gap, the legitimate coincident-arrival case. *)
      let u = Rng.float s.rng in
      let g = -.Float.log1p (-.u) /. rate *. 1e9 in
      s.next_ns <- stamp + (if Float.is_finite g && g > 0.0 then int_of_float g else 0)
  | Burst { rate; burst } ->
      (* [burst] coincident arrivals, then one gap sized so the long-run
         rate is still [rate]: the gap covers the whole burst. *)
      s.in_burst <- s.in_burst - 1;
      if s.in_burst <= 0 then begin
        s.in_burst <- burst;
        s.next_ns <- stamp + gap_ns ~rate ~scale:(float_of_int burst)
      end);
  stamp
