(* Per-domain flight recorder. Each domain owns a fixed-capacity ring of
   four parallel int arrays (timestamp, tag, two args), reached through
   domain-local storage — so the record path is: one DLS read, four array
   stores, one increment. No CAS, no allocation, no sharing with other
   domains' write paths. The ring overwrites its oldest entries, keeping
   the most recent [capacity] events per domain: a flight recorder, not a
   log. Export (post-run, quiescent) merges every domain's surviving
   events sorted by monotonic timestamp and renders Chrome trace_event
   JSON loadable in about:tracing / Perfetto. *)

let now_ns () = Sync.Mono.now_ns_int ()

type ring = {
  dom : int;
  cap : int; (* power of two *)
  ts : int array;
  tag : int array;
  a : int array;
  b : int array;
  mutable pos : int; (* total writes, monotonic; slot = pos land (cap-1) *)
}

let default_capacity = 16_384

let rec round_pow2 c n = if c >= n then c else round_pow2 (c * 2) n

(* Capacity for rings created from now on; existing rings keep theirs.
   Tests shrink it and emit from a fresh domain. *)
let capacity = Atomic.make default_capacity

let set_capacity n =
  if n < 1 then invalid_arg "Trace.set_capacity: capacity < 1";
  Atomic.set capacity (round_pow2 1 n)

(* Every ring ever created, so export sees events from domains that have
   since terminated (a killed chaos worker's last moments are exactly
   what the trace is for). *)
let rings : ring list Atomic.t = Atomic.make []

let rec register r =
  let rs = Atomic.get rings in
  if not (Atomic.compare_and_set rings rs (r :: rs)) then register r

let ring_key : ring Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let cap = Atomic.get capacity in
      let r =
        {
          dom = (Domain.self () :> int);
          cap;
          ts = Array.make cap 0;
          tag = Array.make cap 0;
          a = Array.make cap 0;
          b = Array.make cap 0;
          pos = 0;
        }
      in
      register r;
      r)

(* Unconditional record — the [Obs] wrappers consult the switch first.
   Zero allocation after the domain's ring exists. *)
let emit_at ~ts tag a b =
  let r = Domain.DLS.get ring_key in
  let i = r.pos land (r.cap - 1) in
  r.ts.(i) <- ts;
  r.tag.(i) <- tag;
  r.a.(i) <- a;
  r.b.(i) <- b;
  r.pos <- r.pos + 1

let emit tag a b = emit_at ~ts:(now_ns ()) tag a b

let clear () = List.iter (fun r -> r.pos <- 0) (Atomic.get rings)

(* Events overwritten and lost to the ring, across all domains — exported
   so a truncated trace never silently reads as complete. *)
let dropped () =
  List.fold_left
    (fun acc r -> acc + Stdlib.max 0 (r.pos - r.cap))
    0 (Atomic.get rings)

type event = { e_ts : int; e_dom : int; e_tag : int; e_a : int; e_b : int }

let events () =
  let decode r acc =
    let valid = Stdlib.min r.pos r.cap in
    let rec go k acc =
      if k >= r.pos then acc
      else begin
        let i = k land (r.cap - 1) in
        go (k + 1)
          ({ e_ts = r.ts.(i); e_dom = r.dom; e_tag = r.tag.(i); e_a = r.a.(i); e_b = r.b.(i) }
          :: acc)
      end
    in
    go (r.pos - valid) acc
  in
  let all = List.fold_left (fun acc r -> decode r acc) [] (Atomic.get rings) in
  List.stable_sort (fun x y -> compare x.e_ts y.e_ts) all

(* ------------------------ Chrome trace export ------------------------ *)

(* One instant event ("ph":"i", thread scope) per recorded entry: name
   from the tag (splices carry their window kind in the name so Perfetto
   groups them), tid = domain id, ts in microseconds with ns precision
   kept in the fraction. *)

let event_name e =
  if e.e_tag = Event.window_splice then "splice." ^ Event.kind_name e.e_b
  else Event.name e.e_tag

let event_args e =
  let t = e.e_tag in
  if t = Event.window_splice then [ ("batch", e.e_a) ]
  else if t = Event.elim_hit || t = Event.elim_miss then [ ("shard", e.e_a) ]
  else if t = Event.future_fulfilled then [ ("pending_ns", e.e_a) ]
  else if t = Event.future_forced then [ ("force_ns", e.e_a) ]
  else if t = Event.future_cancelled || t = Event.future_poisoned then
    [ ("pending_ns", e.e_a) ]
  else if t = Event.worker_killed || t = Event.worker_stalled then
    [ ("worker", e.e_a) ]
  else if t = Event.worker_recovered then
    [ ("worker", e.e_a); ("poisoned", e.e_b) ]
  else if t = Event.shard_request || t = Event.shard_grant then
    [ ("bucket", e.e_a) ]
  else if t = Event.shard_ship then [ ("bucket", e.e_a); ("window", e.e_b) ]
  else if t = Event.shard_ack then
    [ ("bucket", e.e_a); ("transfer_ns", e.e_b) ]
  else if t = Event.shard_recover then
    [ ("bucket", e.e_a); ("applied", e.e_b) ]
  else if t = Event.op_enq || t = Event.op_deq || t = Event.op_push
          || t = Event.op_pop then
    [ ("obj", e.e_a land 63); ("value", e.e_a asr 6); ("dur_ns", e.e_b) ]
  else if t = Event.op_deq_empty || t = Event.op_pop_empty then
    [ ("obj", e.e_a land 63); ("dur_ns", e.e_b) ]
  else []

let export oc =
  let evs = events () in
  (* [fldsDropped] lets a consumer (validate_trace) distinguish a
     complete trace from one the rings truncated — a truncated trace can
     still be *checked* but never *certified*. *)
  Printf.fprintf oc
    "{\n\"displayTimeUnit\": \"ns\",\n\"fldsDropped\": %d,\n\"traceEvents\": [\n"
    (dropped ());
  let first = ref true in
  List.iter
    (fun e ->
      if !first then first := false else output_string oc ",\n";
      let args =
        String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "\"%s\":%d" k v)
             (event_args e))
      in
      Printf.fprintf oc
        "{\"name\":\"%s\",\"cat\":\"flds\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%d.%03d,\"pid\":0,\"tid\":%d,\"args\":{%s}}"
        (event_name e) (e.e_ts / 1000) (e.e_ts mod 1000) e.e_dom args)
    evs;
  output_string oc "\n]\n}\n";
  List.length evs

let export_file path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> export oc)
