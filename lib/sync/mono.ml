external now_ns : unit -> (int64[@unboxed])
  = "flds_mono_now_byte" "flds_mono_now_unboxed"
[@@noalloc]

external now_ns_int : unit -> (int[@untagged])
  = "flds_mono_now_int_byte" "flds_mono_now_int_unboxed"
[@@noalloc]

let now () = Int64.to_float (now_ns ()) *. 1e-9

let elapsed_since t0 = now () -. t0

external sched_yield : unit -> unit = "flds_sched_yield" [@@noalloc]

(* How late [Unix.sleepf] wakes on this host, in ns: the median of five
   1 µs sleeps (about 57 µs under Linux's default 50 µs timer slack).
   The median, not the worst: on a busy core one probe can be preempted
   for milliseconds, and the margin below is twice this reading for the
   rest of the process. Measured at the first wait and kept; 0 means not
   yet measured. Two domains that measure at once both store a valid
   reading, so a plain [Atomic] suffices where a [Lazy] would raise
   [Undefined] in the loser. *)
let overshoot = Atomic.make 0

let sleep_overshoot_ns () =
  match Atomic.get overshoot with
  | 0 ->
      let probes =
        Array.init 5 (fun _ ->
            let t0 = now_ns_int () in
            Unix.sleepf 1e-6;
            max 1 (now_ns_int () - t0))
      in
      Array.sort compare probes;
      Atomic.set overshoot probes.(2);
      probes.(2)
  | o -> o

(* Compare before subtracting: [deadline - now] overflows for a
   deadline near [min_int], and such a deadline is simply past. *)
let wait_until_ns deadline =
  if now_ns_int () < deadline then begin
    let margin = 2 * sleep_overshoot_ns () in
    let gap = deadline - now_ns_int () in
    if gap > margin then Unix.sleepf (float_of_int (gap - margin) *. 1e-9);
    while now_ns_int () < deadline do
      sched_yield ()
    done
  end
