module Future = Futures.Future
module H = Lin.History
module R = Fl.Registry
module CS = Lin.Checker.Make (Lin.Spec.Stack_spec)
module CQ = Lin.Checker.Make (Lin.Spec.Queue_spec)
module CL = Lin.Checker.Make (Lin.Spec.Set_spec)
module CM = Lin.Checker.Make (Lin.Spec.Map_spec)

module IntKey = struct
  type t = int

  let compare = Int.compare
end

module WM = Fl.Weak_map.Make (IntKey)

module IntKeyH = struct
  type t = int

  let compare = Int.compare
  let hash x = x
end

module SM = Fl.Shard_map.Make (IntKeyH)

type outcome = {
  rounds : int;
  violations : int;
  first_failure : string option;
}

let claimed_condition = function
  | "lockfree" | "elim" | "flatcomb" | "strong" -> Lin.Order.Strong
  | "medium" | "txn" -> Lin.Order.Medium
  | "weak" -> Lin.Order.Weak
  | name -> invalid_arg ("Conformance: unknown implementation " ^ name)

(* One recorded round: [threads] domains, each performing [ops] operations
   generated by [gen] (which receives the per-domain rng, op sequence
   number and a recording context and returns the completion thunk).
   Completion thunks are deferred with random slack, flushed at random
   points and at the end. *)
let round ~threads ~ops ~seed ~gen ~final_flush =
  let clock = H.clock () in
  let logs = Array.init threads (fun _ -> H.log ()) in
  let barrier = Sync.Barrier.create threads in
  let worker i () =
    let rng = Workload.Rng.create ~seed ~stream:i in
    let pending = ref [] in
    let flush () =
      (* Newest first, matching the Slack policy. *)
      List.iter (fun k -> k ()) !pending;
      pending := []
    in
    Sync.Barrier.wait barrier;
    (* Under seeded chaos (FLDS_FAULTS) this perturbs each recorded
       round's interleaving, widening the schedule space the checker
       sees. *)
    Faults.point "conformance.round";
    for n = 1 to ops do
      let complete = gen ~rng ~log:logs.(i) ~clock ~thread:i ~n in
      pending := complete :: !pending;
      if Workload.Rng.below rng 3 = 0 then flush ()
    done;
    flush ();
    final_flush i
  in
  let ds = List.init threads (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join ds;
  H.merge (Array.to_list logs)

let run_rounds ~rounds ~record ~check ~pp =
  let violations = ref 0 in
  let first_failure = ref None in
  for seed = 1 to rounds do
    let h = record ~seed in
    if not (check h) then begin
      incr violations;
      if !first_failure = None then
        first_failure := Some (Format.asprintf "%a" pp h)
    end
  done;
  { rounds; violations = !violations; first_failure = !first_failure }

let check_stack ?(threads = 3) ?(ops_per_thread = 5) ?condition ~rounds
    (impl : R.stack_impl) =
  let condition =
    match condition with
    | Some c -> c
    | None -> claimed_condition impl.s_name
  in
  let record ~seed =
    let inst = impl.s_make () in
    let handles = Array.make threads None in
    let handle i =
      match handles.(i) with
      | Some o -> o
      | None ->
          let o = inst.R.s_handle () in
          handles.(i) <- Some o;
          o
    in
    let gen ~rng ~log ~clock ~thread ~n =
      let o = handle thread in
      if Workload.Rng.bool rng then begin
        let v = (thread * 1000) + n in
        let _, c =
          H.recorded_call log clock ~thread ~obj:0 (fun () -> o.R.s_push v)
        in
        fun () -> ignore (c (fun () -> Lin.Spec.Stack_spec.Push v))
      end
      else
        let _, c =
          H.recorded_call log clock ~thread ~obj:0 (fun () -> o.R.s_pop ())
        in
        fun () -> ignore (c (fun r -> Lin.Spec.Stack_spec.Pop r))
    in
    let h =
      round ~threads ~ops:ops_per_thread ~seed ~gen ~final_flush:(fun i ->
          (handle i).R.s_flush ())
    in
    inst.R.s_drain ();
    h
  in
  run_rounds ~rounds ~record ~check:(CS.check condition) ~pp:CS.pp_history

let check_queue ?(threads = 3) ?(ops_per_thread = 5) ?condition ~rounds
    (impl : R.queue_impl) =
  let condition =
    match condition with
    | Some c -> c
    | None -> claimed_condition impl.q_name
  in
  let record ~seed =
    let inst = impl.q_make () in
    let handles = Array.make threads None in
    let handle i =
      match handles.(i) with
      | Some o -> o
      | None ->
          let o = inst.R.q_handle () in
          handles.(i) <- Some o;
          o
    in
    let gen ~rng ~log ~clock ~thread ~n =
      let o = handle thread in
      if Workload.Rng.bool rng then begin
        let v = (thread * 1000) + n in
        let _, c =
          H.recorded_call log clock ~thread ~obj:0 (fun () -> o.R.q_enq v)
        in
        fun () -> ignore (c (fun () -> Lin.Spec.Queue_spec.Enq v))
      end
      else
        let _, c =
          H.recorded_call log clock ~thread ~obj:0 (fun () -> o.R.q_deq ())
        in
        fun () -> ignore (c (fun r -> Lin.Spec.Queue_spec.Deq r))
    in
    let h =
      round ~threads ~ops:ops_per_thread ~seed ~gen ~final_flush:(fun i ->
          (handle i).R.q_flush ())
    in
    inst.R.q_drain ();
    h
  in
  run_rounds ~rounds ~record ~check:(CQ.check condition) ~pp:CQ.pp_history

let check_set ?(threads = 3) ?(ops_per_thread = 5) ?(key_range = 4) ?condition
    ~rounds (impl : R.set_impl) =
  let condition =
    match condition with
    | Some c -> c
    | None -> claimed_condition impl.l_name
  in
  let record ~seed =
    let inst = impl.l_make () in
    let handles = Array.make threads None in
    let handle i =
      match handles.(i) with
      | Some o -> o
      | None ->
          let o = inst.R.l_handle () in
          handles.(i) <- Some o;
          o
    in
    let gen ~rng ~log ~clock ~thread ~n:_ =
      let o = handle thread in
      let k = Workload.Rng.below rng key_range in
      match Workload.Rng.below rng 3 with
      | 0 ->
          let _, c =
            H.recorded_call log clock ~thread ~obj:0 (fun () -> o.R.l_insert k)
          in
          fun () -> ignore (c (fun r -> Lin.Spec.Set_spec.Insert (k, r)))
      | 1 ->
          let _, c =
            H.recorded_call log clock ~thread ~obj:0 (fun () -> o.R.l_remove k)
          in
          fun () -> ignore (c (fun r -> Lin.Spec.Set_spec.Remove (k, r)))
      | _ ->
          let _, c =
            H.recorded_call log clock ~thread ~obj:0 (fun () ->
                o.R.l_contains k)
          in
          fun () -> ignore (c (fun r -> Lin.Spec.Set_spec.Contains (k, r)))
    in
    let h =
      round ~threads ~ops:ops_per_thread ~seed ~gen ~final_flush:(fun i ->
          (handle i).R.l_flush ())
    in
    inst.R.l_drain ();
    h
  in
  run_rounds ~rounds ~record ~check:(CL.check condition) ~pp:CL.pp_history

let check_map ?(threads = 3) ?(ops_per_thread = 5) ?(key_range = 4)
    ?(condition = Lin.Order.Weak) ~rounds () =
  let record ~seed =
    let m : int WM.t = WM.create () in
    let handles = Array.make threads None in
    let handle i =
      match handles.(i) with
      | Some h -> h
      | None ->
          let h = WM.handle m in
          handles.(i) <- Some h;
          h
    in
    let gen ~rng ~log ~clock ~thread ~n =
      let h = handle thread in
      let k = Workload.Rng.below rng key_range in
      match Workload.Rng.below rng 3 with
      | 0 ->
          let v = (thread * 1000) + n in
          let _, c =
            H.recorded_call log clock ~thread ~obj:0 (fun () ->
                WM.insert h k v)
          in
          fun () -> ignore (c (fun r -> Lin.Spec.Map_spec.Insert (k, v, r)))
      | 1 ->
          let _, c =
            H.recorded_call log clock ~thread ~obj:0 (fun () -> WM.find h k)
          in
          fun () -> ignore (c (fun r -> Lin.Spec.Map_spec.Find (k, r)))
      | _ ->
          let _, c =
            H.recorded_call log clock ~thread ~obj:0 (fun () -> WM.remove h k)
          in
          fun () -> ignore (c (fun r -> Lin.Spec.Map_spec.Remove (k, r)))
    in
    round ~threads ~ops:ops_per_thread ~seed ~gen ~final_flush:(fun i ->
        WM.flush (handle i))
  in
  run_rounds ~rounds ~record ~check:(CM.check condition) ~pp:CM.pp_history

(* The same recorded harness against the sharded store. The point of the
   exercise: the recorded history is checked against the *centralized*
   Map_spec, so a pass means the sharded store — transfers, degraded
   reads, recoveries and all — refines the unsharded map: every bucket
   ownership transfer is a no-op in the spec. [key_range] over few
   [buckets] keeps every thread's window crossing shard boundaries, so
   rounds exercise the request/grant/ship/ack path constantly. *)
let check_shard_map ?(threads = 3) ?(ops_per_thread = 5) ?(key_range = 4)
    ?(buckets = 2) ?(lease = 0.02) ?(condition = Lin.Order.Weak) ~rounds () =
  let record ~seed =
    let m : int SM.t = SM.create ~buckets ~lease ~grant_timeout:0.001 () in
    let handles = Array.make threads None in
    let handle i =
      match handles.(i) with
      | Some h -> h
      | None ->
          let h = SM.handle m in
          handles.(i) <- Some h;
          h
    in
    let gen ~rng ~log ~clock ~thread ~n =
      let h = handle thread in
      let k = Workload.Rng.below rng key_range in
      match Workload.Rng.below rng 3 with
      | 0 ->
          let v = (thread * 1000) + n in
          let _, c =
            H.recorded_call log clock ~thread ~obj:0 (fun () ->
                SM.insert h k v)
          in
          fun () -> ignore (c (fun r -> Lin.Spec.Map_spec.Insert (k, v, r)))
      | 1 ->
          let _, c =
            H.recorded_call log clock ~thread ~obj:0 (fun () -> SM.find h k)
          in
          fun () -> ignore (c (fun r -> Lin.Spec.Map_spec.Find (k, r)))
      | _ ->
          let _, c =
            H.recorded_call log clock ~thread ~obj:0 (fun () -> SM.remove h k)
          in
          fun () -> ignore (c (fun r -> Lin.Spec.Map_spec.Remove (k, r)))
    in
    round ~threads ~ops:ops_per_thread ~seed ~gen ~final_flush:(fun i ->
        SM.flush (handle i))
  in
  run_rounds ~rounds ~record ~check:(CM.check condition) ~pp:CM.pp_history
