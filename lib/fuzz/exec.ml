module Future = Futures.Future
module H = Lin.History
module R = Fl.Registry
module P = Program
module FC = Combining.Flat_combining
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

type verdict = Pass | Violation of string

type outcome = {
  verdict : verdict;
  ops : int;
  fsc_witness : bool;
  inert : Faults.plan_step list;
}

type runner =
  | RStack of R.stack_impl
  | RQueue of R.queue_impl
  | RSet of R.set_impl
  | RMap
  | RMulti
  | RSlack
  | RFclease
  | RShard
  | RTuned
  | RService

type target = {
  name : string;
  kind : P.kind;
  condition : Lin.Order.condition;
  kill_plan : bool;
  runner : runner;
}

let targets =
  List.map
    (fun (i : R.stack_impl) ->
      {
        name = "stack/" ^ i.R.s_name;
        kind = P.Stack;
        condition = Conformance.claimed_condition i.R.s_name;
        kill_plan = false;
        runner = RStack i;
      })
    R.stack_impls
  @ List.map
      (fun (i : R.queue_impl) ->
        {
          name = "queue/" ^ i.R.q_name;
          kind = P.Queue;
          condition = Conformance.claimed_condition i.R.q_name;
          kill_plan = false;
          runner = RQueue i;
        })
      R.queue_impls
  @ List.map
      (fun (i : R.set_impl) ->
        {
          name = "list/" ^ i.R.l_name;
          kind = P.Set;
          condition = Conformance.claimed_condition i.R.l_name;
          kill_plan = false;
          runner = RSet i;
        })
      R.set_impls
  @ [
      {
        name = "map/weak";
        kind = P.Map;
        condition = Lin.Order.Weak;
        kill_plan = false;
        runner = RMap;
      };
      (* Figure 3: two strong queues, checked per object (Strong) with
         the global Fsc verdict kept as the negative oracle — per-object
         Strong implies global Fsc here never *fails* the target, a
         global-Fsc pass/violation is only recorded as a witness. *)
      {
        name = "fig3";
        kind = P.Multi;
        condition = Lin.Order.Strong;
        kill_plan = false;
        runner = RMulti;
      };
      (* Oracle targets: no recorded history. [slack] checks the
         evaluation-policy helper fires every noted thunk exactly once,
         with kill plans making single force thunks raise; [fclease]
         drives combiner kills against a sum oracle on the
         flat-combining lease. *)
      {
        name = "slack";
        kind = P.Stack;
        condition = Lin.Order.Strong;
        kill_plan = true;
        runner = RSlack;
      };
      {
        name = "fclease";
        kind = P.Stack;
        condition = Lin.Order.Strong;
        kill_plan = true;
        runner = RFclease;
      };
      (* Sharded-map liveness/refinement oracle: map programs against a
         2-bucket store with short leases (so transfers actually occur);
         plans may kill at any transfer protocol step. *)
      {
        name = "shardmap";
        kind = P.Map;
        condition = Lin.Order.Weak;
        kill_plan = true;
        runner = RShard;
      };
      (* History-checked conformance under a live self-tuning
         controller; kill plans can only reach the controller's
         "tune.epoch" point (see [tuned_run]). *)
      {
        name = "tuned";
        kind = P.Stack;
        condition = Conformance.claimed_condition "weak";
        kill_plan = true;
        runner = RTuned;
      };
      (* Admission-controlled session path: every map op passes an
         Overload gate held in the shedding regime; admitted ops are
         history-checked (kill-free plans) and shed ops must leave no
         trace in the surviving store. Plans may kill at the service
         points (admit/shed/degrade/epoch) and the transfer protocol. *)
      {
        name = "service";
        kind = P.Map;
        condition = Lin.Order.Weak;
        kill_plan = true;
        runner = RService;
      };
    ]

let find name =
  match List.find_opt (fun t -> t.name = name) targets with
  | Some t -> t
  | None -> invalid_arg ("Fuzz.Exec.find: unknown target " ^ name)

(* ------------------------ recorded execution ---------------------- *)

(* One phase: [threads] fresh domains run their step lists from a
   barrier. Completions are deferred newest-first (the Slack policy) and
   flushed at Force steps and at the end; [handler] supplies the
   per-domain step interpreter and an end-of-phase flush. *)
let run_phase ~threads ~handler phase =
  let logs = Array.init threads (fun _ -> H.log ()) in
  let barrier = Sync.Barrier.create threads in
  let worker i () =
    let step_fn, finish = handler ~thread:i ~log:logs.(i) in
    let pending = ref [] in
    let flush () =
      List.iter (fun k -> k ()) !pending;
      pending := []
    in
    Sync.Barrier.wait barrier;
    List.iter
      (fun (st : P.step) ->
        Faults.point "fuzz.step";
        match st.P.op with
        | P.Force -> flush ()
        | _ -> (
            match step_fn st with
            | Some c -> pending := c :: !pending
            | None -> ()))
      phase.(i);
    flush ();
    finish ()
  in
  let ds = List.init threads (fun i -> Domain.spawn (worker i)) in
  let exns =
    List.filter_map
      (fun d ->
        match Domain.join d with () -> None | exception e -> Some e)
      ds
  in
  (match exns with e :: _ -> raise e | [] -> ());
  Array.to_list logs

let recorded (prog : P.t) ~handler ~drain ~check =
  let clock = H.clock () in
  let logs =
    List.concat_map
      (fun phase ->
        run_phase ~threads:prog.P.threads ~handler:(handler ~clock) phase)
      prog.P.phases
  in
  drain ();
  check (H.merge logs)

let violation fmt = Format.kasprintf (fun s -> Violation s) fmt

let checked ~check_segmented ~pp_history ~name cond h =
  let verdict =
    if check_segmented cond h then Pass
    else
      violation "%s: history is not %s:@.%a" name
        (Lin.Order.condition_name cond)
        pp_history h
  in
  { verdict; ops = Array.length h; fsc_witness = false; inert = [] }

let stack_record_inst (inst : R.stack_instance) prog =
  let handler ~clock ~thread ~log =
    let o = inst.R.s_handle () in
    let step (st : P.step) =
      match st.P.op with
      | P.Push v ->
          let _, c =
            H.recorded_call log clock ~thread ~obj:st.P.obj (fun () ->
                o.R.s_push v)
          in
          Some (fun () -> ignore (c (fun () -> Lin.Spec.Stack_spec.Push v)))
      | P.Pop ->
          let _, c =
            H.recorded_call log clock ~thread ~obj:st.P.obj (fun () ->
                o.R.s_pop ())
          in
          Some (fun () -> ignore (c (fun r -> Lin.Spec.Stack_spec.Pop r)))
      | _ -> None
    in
    (step, fun () -> o.R.s_flush ())
  in
  recorded prog ~handler
    ~drain:(fun () -> inst.R.s_drain ())
    ~check:(fun h -> h)

let stack_run_inst (inst : R.stack_instance) ~name cond prog =
  checked
    ~check_segmented:(fun c h -> CS.check_segmented c h)
    ~pp_history:CS.pp_history ~name cond
    (stack_record_inst inst prog)

let stack_run (impl : R.stack_impl) cond prog =
  stack_run_inst (impl.R.s_make ()) ~name:("stack/" ^ impl.R.s_name) cond prog

(* Live-retuning target: the weak stack runs an ordinary history-checked
   program while a [Tune.Controller] on a fast epoch retunes a slack
   dial from live telemetry. The one history-checked target that accepts
   kill plans: its operations never pass a kill point — the only
   reachable one is the controller's ["tune.epoch"] — so a kill murders
   the tuner, never an operation, and the history must stay conformant
   with the last-good configuration frozen in place. *)
let tuned_run cond prog =
  let inst = (R.find_stack "weak").R.s_make () in
  let sl = Fl.Slack.create 8 in
  let ctl = Tune.Controller.create ~epoch:0.0005 () in
  Tune.Controller.add_dial ctl (Fl.Tunable.of_slack ~name:"tuned.slack" sl);
  Tune.Controller.start ctl;
  Fun.protect
    ~finally:(fun () -> Tune.Controller.stop ctl)
    (fun () -> stack_run_inst inst ~name:"tuned" cond prog)

let queue_handler (o : R.queue_ops) ~clock ~thread =
  fun log (st : P.step) ->
   match st.P.op with
   | P.Enq v ->
       let _, c =
         H.recorded_call log clock ~thread ~obj:st.P.obj (fun () ->
             o.R.q_enq v)
       in
       Some (fun () -> ignore (c (fun () -> Lin.Spec.Queue_spec.Enq v)))
   | P.Deq ->
       let _, c =
         H.recorded_call log clock ~thread ~obj:st.P.obj (fun () ->
             o.R.q_deq ())
       in
       Some (fun () -> ignore (c (fun r -> Lin.Spec.Queue_spec.Deq r)))
   | _ -> None

let queue_record_inst (inst : R.queue_instance) prog =
  let handler ~clock ~thread ~log =
    let o = inst.R.q_handle () in
    let step st = queue_handler o ~clock ~thread log st in
    (step, fun () -> o.R.q_flush ())
  in
  recorded prog ~handler
    ~drain:(fun () -> inst.R.q_drain ())
    ~check:(fun h -> h)

let queue_run (impl : R.queue_impl) cond prog =
  checked
    ~check_segmented:(fun c h -> CQ.check_segmented c h)
    ~pp_history:CQ.pp_history
    ~name:("queue/" ^ impl.R.q_name) cond
    (queue_record_inst (impl.R.q_make ()) prog)

(* Raw recorded histories for the mega-history mode: run the program
   against a registry implementation and hand back the merged history
   instead of judging it — {!Mega} checks it with the streaming
   monitor. *)
let record_stack ~impl prog =
  stack_record_inst ((R.find_stack impl).R.s_make ()) prog

let record_queue ~impl prog = queue_record_inst ((R.find_queue impl).R.q_make ()) prog

let set_run (impl : R.set_impl) cond prog =
  let inst = impl.R.l_make () in
  let handler ~clock ~thread ~log =
    let o = inst.R.l_handle () in
    let step (st : P.step) =
      let call mk f =
        let _, c =
          H.recorded_call log clock ~thread ~obj:st.P.obj f
        in
        Some (fun () -> ignore (c mk))
      in
      match st.P.op with
      | P.Add k ->
          call (fun r -> Lin.Spec.Set_spec.Insert (k, r)) (fun () ->
              o.R.l_insert k)
      | P.Del k ->
          call (fun r -> Lin.Spec.Set_spec.Remove (k, r)) (fun () ->
              o.R.l_remove k)
      | P.Mem k ->
          call (fun r -> Lin.Spec.Set_spec.Contains (k, r)) (fun () ->
              o.R.l_contains k)
      | _ -> None
    in
    (step, fun () -> o.R.l_flush ())
  in
  recorded prog ~handler
    ~drain:(fun () -> inst.R.l_drain ())
    ~check:
      (checked
         ~check_segmented:(fun c h -> CL.check_segmented c h)
         ~pp_history:CL.pp_history
         ~name:("list/" ^ impl.R.l_name) cond)

let map_run cond prog =
  let m : int WM.t = WM.create () in
  let handler ~clock ~thread ~log =
    let h = WM.handle m in
    let step (st : P.step) =
      let call mk f =
        let _, c = H.recorded_call log clock ~thread ~obj:st.P.obj f in
        Some (fun () -> ignore (c mk))
      in
      match st.P.op with
      | P.Bind (k, v) ->
          call (fun r -> Lin.Spec.Map_spec.Insert (k, v, r)) (fun () ->
              WM.insert h k v)
      | P.Lookup k ->
          call (fun r -> Lin.Spec.Map_spec.Find (k, r)) (fun () ->
              WM.find h k)
      | P.Unbind k ->
          call (fun r -> Lin.Spec.Map_spec.Remove (k, r)) (fun () ->
              WM.remove h k)
      | _ -> None
    in
    (step, fun () -> WM.flush h)
  in
  recorded prog ~handler
    ~drain:(fun () -> ())
    ~check:
      (checked
         ~check_segmented:(fun c h -> CM.check_segmented c h)
         ~pp_history:CM.pp_history ~name:"map/weak" cond)

let multi_run cond prog =
  let impl = R.find_queue "strong" in
  let insts = Array.init (P.objects P.Multi) (fun _ -> impl.R.q_make ()) in
  let handler ~clock ~thread ~log =
    let os = Array.map (fun inst -> inst.R.q_handle ()) insts in
    let step (st : P.step) =
      queue_handler os.(st.P.obj) ~clock ~thread log st
    in
    (step, fun () -> Array.iter (fun o -> o.R.q_flush ()) os)
  in
  recorded prog ~handler
    ~drain:(fun () -> Array.iter (fun i -> i.R.q_drain ()) insts)
    ~check:(fun h ->
      let out =
        checked
          ~check_segmented:(fun c h -> CQ.check_segmented c h)
          ~pp_history:CQ.pp_history ~name:"fig3" cond h
      in
      (* The Fsc negative oracle (Figure 3): futures sequential
         consistency is not compositional, so a global-Fsc failure over
         per-object-correct queues is the interesting witness, never a
         target failure. *)
      let fsc_witness =
        out.verdict = Pass && not (CQ.check_segmented Lin.Order.Fsc h)
      in
      { out with fsc_witness })

(* -------------------------- oracle targets ------------------------ *)

(* Exactly-once oracle on the Slack evaluation-policy helper: every
   noted thunk must run exactly once, and nothing may remain pending
   after drain — under any stall plan. A thunk hits [slack.force] after
   counting its run, so a plan's kill step there makes that thunk raise
   once; the worker catches it, as a caller of [note]/[drain] would, and
   drains again until nothing is left. *)
let slack_kill_points = [ "slack.force" ]

let slack_run (prog : P.t) =
  let errors = Atomic.make [] in
  let report msg =
    let rec add () =
      let cur = Atomic.get errors in
      if not (Atomic.compare_and_set errors cur (msg :: cur)) then add ()
    in
    add ()
  in
  let ops = ref 0 in
  let caught f = try f () with Faults.Killed _ -> () in
  let rec settle sl =
    match Fl.Slack.drain sl with
    | () -> ()
    | exception Faults.Killed _ -> settle sl
  in
  List.iter
    (fun phase ->
      let threads = prog.P.threads in
      let barrier = Sync.Barrier.create threads in
      let worker i () =
        let sl = Fl.Slack.create 3 in
        let n = List.length (List.filter (fun s -> s.P.op <> P.Force) phase.(i)) in
        let runs = Array.make (max 1 n) 0 in
        let next = ref 0 in
        Sync.Barrier.wait barrier;
        List.iter
          (fun (st : P.step) ->
            Faults.point "fuzz.step";
            match st.P.op with
            | P.Force -> caught (fun () -> Fl.Slack.drain sl)
            | _ ->
                let id = !next in
                incr next;
                caught (fun () ->
                    Fl.Slack.note sl (fun () ->
                        runs.(id) <- runs.(id) + 1;
                        Faults.point "slack.force")))
          phase.(i);
        settle sl;
        if Fl.Slack.pending sl <> 0 then
          report
            (Printf.sprintf "slack: thread %d: %d thunks still pending" i
               (Fl.Slack.pending sl));
        Array.iteri
          (fun id k ->
            if id < n && k <> 1 then
              report
                (Printf.sprintf "slack: thread %d: thunk %d ran %d times" i
                   id k))
          runs
      in
      let ds = List.init threads (fun i -> Domain.spawn (worker i)) in
      List.iter Domain.join ds;
      ops :=
        !ops
        + Array.fold_left
            (fun acc steps ->
              acc + List.length (List.filter (fun s -> s.P.op <> P.Force) steps))
            0 phase)
    prog.P.phases;
  let verdict =
    match Atomic.get errors with
    | [] -> Pass
    | msgs -> Violation (String.concat "\n" (List.rev msgs))
  in
  { verdict; ops = !ops; fsc_witness = false; inert = [] }

(* Combiner-lease oracle: every step applies +1 through flat combining;
   plans may kill the combiner mid-pass ([fc.pass]/[fc.record]). An op
   that returned normally must be counted exactly once; a killed op may
   or may not have been applied before the kill (that ambiguity is why
   history-checked targets never see kills), so the final sum must land
   in [normal, normal + killed]. *)
let fclease_run (prog : P.t) =
  let sum = ref 0 in
  let fc = FC.create ~apply:(fun n -> sum := !sum + n; !sum) () in
  let normal = Atomic.make 0 and killed = Atomic.make 0 in
  List.iter
    (fun phase ->
      let threads = prog.P.threads in
      let barrier = Sync.Barrier.create threads in
      let worker i () =
        let h = FC.handle fc in
        Sync.Barrier.wait barrier;
        List.iter
          (fun (st : P.step) ->
            match st.P.op with
            | P.Force -> ()
            | _ -> (
                try
                  ignore (FC.apply h 1);
                  ignore (Atomic.fetch_and_add normal 1)
                with Faults.Killed _ ->
                  ignore (Atomic.fetch_and_add killed 1)))
          phase.(i)
      in
      let ds = List.init threads (fun i -> Domain.spawn (worker i)) in
      List.iter Domain.join ds)
    prog.P.phases;
  let n = Atomic.get normal and k = Atomic.get killed in
  let verdict =
    if !sum >= n && !sum <= n + k then Pass
    else
      violation
        "fclease: %d ops returned, %d killed, but the structure counted %d \
         (expected in [%d, %d])"
        n k !sum n (n + k)
  in
  { verdict; ops = n + k; fsc_witness = false; inert = [] }

(* Sharded-map oracle: Bind/Lookup/Unbind run against a 2-bucket store
   with short leases; plans may stall or kill at [shard.apply] (holding
   a lease) and at [shard.grant]/[shard.ship]/[shard.ack] (and the
   flat-combining points, which simply never fire here). A killed worker
   abandons its handle — the domain is "dead", its windows poisoned, its
   leases left to expire — and the drain below plays the surviving
   process. Two properties, under any plan:

   - liveness: after a bounded recovery drain, no tracked future is
     still pending — every operation was applied, cancelled or poisoned;
   - refinement: every binding in the surviving store was proposed by
     some Bind of that exact (key, value) — transfers and recoveries
     never invent or corrupt state. *)
let shardmap_run (prog : P.t) =
  let m : int SM.t =
    SM.create ~buckets:2 ~lease:0.01 ~grant_timeout:0.0005 ()
  in
  let push cell x =
    let rec go () =
      let cur = Atomic.get cell in
      if not (Atomic.compare_and_set cell cur (x :: cur)) then go ()
    in
    go ()
  in
  let proposed : (int * int) list Atomic.t = Atomic.make [] in
  let pending : (unit -> bool) list Atomic.t = Atomic.make [] in
  let ops = Atomic.make 0 in
  List.iter
    (fun phase ->
      let threads = prog.P.threads in
      let barrier = Sync.Barrier.create threads in
      let worker i () =
        let h = SM.handle m in
        let track f = push pending (fun () -> Future.is_pending f) in
        Sync.Barrier.wait barrier;
        try
          List.iter
            (fun (st : P.step) ->
              Faults.point "fuzz.step";
              ignore (Atomic.fetch_and_add ops 1);
              match st.P.op with
              | P.Force -> SM.flush h
              | P.Bind (k, v) ->
                  push proposed (k, v);
                  track (SM.insert h k v)
              | P.Lookup k -> track (SM.find h k)
              | P.Unbind k -> track (SM.remove h k)
              | _ -> ())
            phase.(i);
          SM.flush h
        with Faults.Killed _ -> ignore (SM.abandon h)
      in
      let ds = List.init threads (fun i -> Domain.spawn (worker i)) in
      List.iter Domain.join ds)
    prog.P.phases;
  (* Recovery drain: windows shipped to (or granted by) dead handles sit
     in transfer states until their deadline; sweep from a fresh handle
     until every tracked future is terminal. Bounded, so a protocol hang
     becomes a violation here instead of hanging the fuzzer. *)
  let dh = SM.handle m in
  let deadline = Sync.Mono.now () +. 5.0 in
  let still () =
    List.exists (fun is_pending -> is_pending ()) (Atomic.get pending)
  in
  let hung = ref false in
  while still () && not !hung do
    ignore (SM.recover_all dh);
    if Sync.Mono.now () > deadline then hung := true else Unix.sleepf 0.0005
  done;
  let props = Atomic.get proposed in
  let alien =
    List.filter (fun (k, v) -> not (List.mem (k, v) props)) (SM.bindings m)
  in
  let verdict =
    if !hung then
      let n =
        List.length
          (List.filter (fun is_pending -> is_pending ()) (Atomic.get pending))
      in
      violation
        "shardmap: %d future(s) still pending after the recovery drain \
         deadline (stats: %d req / %d ship / %d ack / %d recover)"
        n (SM.stats m).SM.requests (SM.stats m).SM.ships (SM.stats m).SM.acks
        (SM.stats m).SM.recovers
    else if alien <> [] then
      violation "shardmap: %d surviving binding(s) never proposed by any Bind"
        (List.length alien)
    else Pass
  in
  { verdict; ops = Atomic.get ops; fsc_witness = false; inert = [] }

(* Service oracle: the admission-controlled session path. Map programs
   run against a 2-bucket sharded store behind a live [Overload]
   controller forced into the shedding regime (hysteresis effectively
   infinite, so chaos cannot quietly recover it): every Bind/Lookup/
   Unbind first asks [Overload.admit] — and mutations additionally
   respect [writes_degraded] — so each op is either {e admitted}
   (executed and recorded) or {e shed} (refused before any structure
   call: no future, no history entry, no store effect). Plans may kill
   at the service points ([service.admit]/[service.shed]/
   [service.degrade]/[service.epoch]) and at the shard transfer points;
   a killed worker abandons its handle like a real dead domain.

   Properties, under any plan:

   - liveness: after a bounded recovery drain, no tracked future of an
     admitted op is still pending — shed or not, nothing hangs;
   - shed exclusion: every binding in the surviving store was proposed
     by an {e admitted} Bind — shed ops leave no trace;
   - conformance (kill-free plans only): the recorded history of the
     admitted subset is FL-conformant against the map spec. A killed
     worker's recorded entries are ambiguous (applied or not), so kill
     plans rest on the two oracle properties, like [fclease]/[shardmap]. *)
let service_run cond (prog : P.t) ~with_kills =
  let m : int SM.t =
    SM.create ~buckets:2 ~lease:0.01 ~grant_timeout:0.0005 ()
  in
  let ov =
    Workload.Overload.create
      ~cfg:{ Workload.Overload.default with hysteresis = max_int }
      ~epoch:0.001 ()
  in
  Workload.Overload.force_stage ov Workload.Overload.Shed;
  let push cell x =
    let rec go () =
      let cur = Atomic.get cell in
      if not (Atomic.compare_and_set cell cur (x :: cur)) then go ()
    in
    go ()
  in
  let admitted_binds : (int * int) list Atomic.t = Atomic.make [] in
  let pending : (unit -> bool) list Atomic.t = Atomic.make [] in
  let logs = Atomic.make [] in
  let admitted = Atomic.make 0 in
  let shed = Atomic.make 0 in
  let clock = H.clock () in
  Workload.Overload.start ov;
  Fun.protect
    ~finally:(fun () -> Workload.Overload.stop ov)
    (fun () ->
      List.iter
        (fun phase ->
          let threads = prog.P.threads in
          let barrier = Sync.Barrier.create threads in
          let worker i () =
            let h = SM.handle m in
            let log = H.log () in
            push logs log;
            let completions = ref [] in
            let flush () =
              SM.flush h;
              List.iter (fun k -> k ()) !completions;
              completions := []
            in
            (* Gate one op. Refusal happens before any structure call, so
               a shed op cannot appear in the history or the store. *)
            let gate ~write =
              if write && Workload.Overload.writes_degraded ov then begin
                ignore (Atomic.fetch_and_add shed 1);
                false
              end
              else if Workload.Overload.admit ov then begin
                ignore (Atomic.fetch_and_add admitted 1);
                true
              end
              else begin
                ignore (Atomic.fetch_and_add shed 1);
                false
              end
            in
            let call st mk f =
              let fut, c =
                H.recorded_call log clock ~thread:i ~obj:st.P.obj f
              in
              push pending (fun () -> Future.is_pending fut);
              completions :=
                (fun () ->
                  try ignore (c mk)
                  with Future.Cancelled | Future.Broken _ | Future.Rejected ->
                    (* Collateral of a kill elsewhere: the entry stays
                       unfiled; kill plans skip the history check. *)
                    ())
                :: !completions
            in
            Sync.Barrier.wait barrier;
            try
              List.iter
                (fun (st : P.step) ->
                  Faults.point "fuzz.step";
                  match st.P.op with
                  | P.Force -> flush ()
                  | P.Bind (k, v) ->
                      if gate ~write:true then begin
                        push admitted_binds (k, v);
                        call st
                          (fun r -> Lin.Spec.Map_spec.Insert (k, v, r))
                          (fun () -> SM.insert h k v)
                      end
                  | P.Lookup k ->
                      if gate ~write:false then
                        call st
                          (fun r -> Lin.Spec.Map_spec.Find (k, r))
                          (fun () -> SM.find h k)
                  | P.Unbind k ->
                      if gate ~write:true then
                        call st
                          (fun r -> Lin.Spec.Map_spec.Remove (k, r))
                          (fun () -> SM.remove h k)
                  | _ -> ())
                phase.(i);
              flush ()
            with Faults.Killed _ -> ignore (SM.abandon h)
          in
          let ds = List.init threads (fun i -> Domain.spawn (worker i)) in
          List.iter Domain.join ds)
        prog.P.phases;
      (* Liveness: sweep expired buckets from a fresh handle until every
         tracked future is terminal, under a hard deadline. *)
      let dh = SM.handle m in
      let deadline = Sync.Mono.now () +. 5.0 in
      let still () =
        List.exists (fun is_pending -> is_pending ()) (Atomic.get pending)
      in
      let hung = ref false in
      while still () && not !hung do
        ignore (SM.recover_all dh);
        if Sync.Mono.now () > deadline then hung := true
        else Unix.sleepf 0.0005
      done;
      let binds = Atomic.get admitted_binds in
      let alien =
        List.filter (fun (k, v) -> not (List.mem (k, v) binds)) (SM.bindings m)
      in
      let verdict =
        if !hung then
          let n =
            List.length
              (List.filter
                 (fun is_pending -> is_pending ())
                 (Atomic.get pending))
          in
          violation
            "service: %d admitted future(s) still pending after the recovery \
             drain deadline (stage %s, %d admitted / %d shed)"
            n
            (Workload.Overload.stage_name (Workload.Overload.stage ov))
            (Atomic.get admitted) (Atomic.get shed)
        else if alien <> [] then
          violation
            "service: %d surviving binding(s) never proposed by an admitted \
             Bind — shed ops must leave no trace"
            (List.length alien)
        else if not with_kills then begin
          let h = H.merge (Atomic.get logs) in
          if CM.check_segmented cond h then Pass
          else
            violation "service: admitted-op history is not %s:@.%a"
              (Lin.Order.condition_name cond)
              CM.pp_history h
        end
        else Pass
      in
      {
        verdict;
        ops = Atomic.get admitted + Atomic.get shed;
        fsc_witness = false;
        inert = [];
      })

(* ------------------------------ run ------------------------------- *)

let kill_points t =
  match t.runner with RSlack -> slack_kill_points | _ -> Plan.kill_points

(* Execute [prog] with [plan] installed and return [after ()], read
   while the plan's hit counters still stand. *)
let execute cond t prog plan ~after =
  Faults.install_plan plan;
  Fun.protect
    ~finally:(fun () -> Faults.uninstall_plan plan)
    (fun () ->
      let out =
        match t.runner with
        | RStack i -> stack_run i cond prog
        | RQueue i -> queue_run i cond prog
        | RSet i -> set_run i cond prog
        | RMap -> map_run cond prog
        | RMulti -> multi_run cond prog
        | RSlack -> slack_run prog
        | RFclease -> fclease_run prog
        | RShard -> shardmap_run prog
        | RTuned -> tuned_run cond prog
        | RService -> service_run cond prog ~with_kills:(Plan.has_kills plan)
      in
      after out)

let run ?condition (t : target) (prog : P.t) (plan : Plan.t) =
  if Plan.has_kills plan && not t.kill_plan then
    invalid_arg
      ("Fuzz.Exec.run: kill plan against history-checked target " ^ t.name);
  let cond = Option.value condition ~default:t.condition in
  execute cond t prog plan ~after:(fun out ->
      let inert (s : Faults.plan_step) =
        Faults.hits s.Faults.pt <= s.Faults.at
      in
      { out with inert = List.filter inert plan })

(* A dry run scripts every kill and stall point with [Nothing] (at hit
   -1, which never comes), so each hit is counted and none is
   perturbed. *)
let reach (t : target) (prog : P.t) =
  let pts = List.sort_uniq compare (kill_points t @ Plan.stall_points) in
  let probe =
    List.map (fun pt -> { Faults.pt; at = -1; act = Faults.Nothing }) pts
  in
  execute t.condition t prog probe ~after:(fun _ ->
      List.map (fun pt -> (pt, Faults.hits pt)) pts)
