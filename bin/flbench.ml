(* flbench — command-line driver for single experiments.

   The bench/main.exe harness regenerates the paper's figures wholesale;
   this tool runs one configuration at a time, which is handier for
   exploration and scripting:

     flbench list
     flbench run --structure stack --impl weak --threads 4 --slack 20
     flbench check --structure queue --impl medium --rounds 20
*)

module R = Fl.Registry
module SL = Workload.Slack_loop
open Cmdliner

let structures = [ "stack"; "queue"; "list" ]

let impl_names = List.map (fun i -> i.R.s_name) R.stack_impls

let set_impl_names = List.map (fun i -> i.R.l_name) R.set_impls

let all_impl_names =
  List.sort_uniq compare (impl_names @ set_impl_names)

(* ------------------------------- list ------------------------------- *)

let list_cmd =
  let doc = "List available structures and implementations." in
  let run () =
    print_endline "structures:      stack queue list";
    print_endline
      ("implementations: " ^ String.concat " " impl_names
     ^ " (+ txn for list)");
    print_endline
      "conditions:      lockfree/strong = strong-FL, medium = medium-FL, \
       weak = weak-FL"
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* ------------------------------- run -------------------------------- *)

let structure_arg =
  let doc = "Data structure: stack, queue or list." in
  Arg.(
    required
    & opt (some (enum (List.map (fun s -> (s, s)) structures))) None
    & info [ "s"; "structure" ] ~docv:"STRUCT" ~doc)

let impl_arg =
  let doc =
    "Implementation: lockfree, flatcomb, weak, medium or strong — plus \
     elim (stacks only) and txn (lists only)."
  in
  Arg.(
    required
    & opt (some (enum (List.map (fun s -> (s, s)) all_impl_names))) None
    & info [ "i"; "impl" ] ~docv:"IMPL" ~doc)

let threads_arg =
  Arg.(value & opt int 2 & info [ "t"; "threads" ] ~docv:"N" ~doc:"Domains.")

let ops_arg =
  Arg.(
    value & opt int 20_000
    & info [ "n"; "ops" ] ~docv:"N" ~doc:"Operations per thread.")

let slack_arg =
  Arg.(
    value & opt int 10
    & info [ "x"; "slack" ] ~docv:"X"
        ~doc:"Futures allowed outstanding before forcing them all.")

let repeats_arg =
  Arg.(value & opt int 3 & info [ "r"; "repeats" ] ~docv:"N" ~doc:"Repeats.")

let run_cmd =
  let doc = "Run one benchmark configuration and print the measurement." in
  let run structure impl threads ops slack repeats =
    let measure w = SL.measure ~seed:1 ~slack ~threads ~repeats ~ops w in
    let m =
      try
        match structure with
        | "stack" -> measure (SL.stack (R.find_stack impl))
        | "queue" -> measure (SL.queue (R.find_queue impl))
        | "list" -> measure (SL.set (R.find_set impl))
        | _ -> assert false
      with Not_found ->
        Printf.eprintf "error: %s has no %s implementation\n" structure impl;
        exit 2
    in
    Printf.printf
      "%s/%s threads=%d ops=%d slack=%d: %s mean (+/- %s), %.0f ops/s, %.2f \
       CAS/op\n"
      structure impl threads ops slack
      (Workload.Report.seconds m.Workload.Runner.seconds)
      (Workload.Report.seconds m.Workload.Runner.std_dev)
      m.Workload.Runner.throughput m.Workload.Runner.cas_per_op
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ structure_arg $ impl_arg $ threads_arg $ ops_arg $ slack_arg
      $ repeats_arg)

(* ------------------------------ check ------------------------------- *)

let rounds_arg =
  Arg.(
    value & opt int 10
    & info [ "rounds" ] ~docv:"N" ~doc:"Recorded rounds to verify.")

let check_cmd =
  let doc =
    "Record concurrent executions and verify them against the \
     implementation's futures-linearizability condition."
  in
  let run structure impl rounds =
    let outcome =
      try
        match structure with
        | "stack" -> Conformance.check_stack ~rounds (R.find_stack impl)
        | "queue" -> Conformance.check_queue ~rounds (R.find_queue impl)
        | "list" -> Conformance.check_set ~rounds (R.find_set impl)
        | _ -> assert false
      with Not_found ->
        Printf.eprintf "error: %s has no %s implementation\n" structure impl;
        exit 2
    in
    match outcome.Conformance.first_failure with
    | None ->
        Printf.printf "%s/%s: %d rounds, all %s-FL\n" structure impl rounds
          (Lin.Order.condition_name (Conformance.claimed_condition impl))
    | Some history ->
        print_endline history;
        Printf.printf "%s/%s: %d/%d rounds FAILED\n" structure impl
          outcome.Conformance.violations rounds;
        exit 1
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const run $ structure_arg $ impl_arg $ rounds_arg)

(* ------------------------------ fuzz -------------------------------- *)

let fuzz_target_names = List.map (fun t -> t.Fuzz.Exec.name) Fuzz.Exec.targets

let fuzz_targets_arg =
  let doc =
    "Target to fuzz (repeatable; default all). One of: "
    ^ String.concat ", " fuzz_target_names ^ "."
  in
  Arg.(value & opt_all string [] & info [ "target" ] ~docv:"TARGET" ~doc)

let fuzz_seed_arg =
  Arg.(
    value & opt int 2014
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Campaign seed. Same seed, same programs, same perturbation \
           plans, same verdicts.")

let fuzz_iters_arg =
  Arg.(
    value & opt int 20
    & info [ "iters" ] ~docv:"N" ~doc:"Iterations per target.")

let fuzz_budget_arg =
  Arg.(
    value & opt float 0.
    & info [ "budget" ] ~docv:"SECS"
        ~doc:
          "Wall-clock budget per target (0 = none); stops the iteration \
           loop when exceeded.")

let fuzz_condition_arg =
  let conds =
    [ ("strong", Lin.Order.Strong); ("medium", Lin.Order.Medium);
      ("weak", Lin.Order.Weak); ("fsc", Lin.Order.Fsc) ]
  in
  let doc =
    "Override the checked condition (strong, medium, weak, fsc). The \
     acceptance gauntlet runs an intentionally-too-strong check, e.g. \
     --target stack/weak --condition medium."
  in
  Arg.(
    value & opt (some (enum conds)) None
    & info [ "condition" ] ~docv:"COND" ~doc)

let fuzz_threads_arg =
  Arg.(
    value & opt int 0
    & info [ "threads" ] ~docv:"N" ~doc:"Program threads (0 = default 3).")

let fuzz_phases_arg =
  Arg.(
    value & opt int 0
    & info [ "phases" ] ~docv:"N" ~doc:"Program phases (0 = default 2).")

let fuzz_steps_arg =
  Arg.(
    value & opt int 0
    & info [ "steps" ] ~docv:"N"
        ~doc:"Steps per thread per phase (0 = default 5).")

let fuzz_mega_arg =
  Arg.(
    value & opt int 0
    & info [ "mega" ] ~docv:"STEPS"
        ~doc:
          "Steps per thread for mega targets (0 = default 2000). Mega \
           targets are named mega/<stack|queue>/<impl>[@SEED]: one \
           uncapped single-phase program whose recorded history is \
           certified by the streaming monitor instead of the exact \
           checker; the optional @SEED corrupts the history \
           deterministically and expects a rejection.")

let fuzz_out_arg =
  Arg.(
    value
    & opt string Fuzz.Driver.default_out_dir
    & info [ "out" ] ~docv:"DIR" ~doc:"Directory for .repro files.")

let fuzz_replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:
          "Re-execute a saved .repro byte-for-byte instead of fuzzing. \
           Exits 0 when the recorded violation reproduces, 1 when it no \
           longer does, 2 on a malformed file.")

let sanitize name =
  String.map (function '/' -> '-' | c -> c) name

let fuzz_cmd =
  let doc =
    "Fuzz the structures for futures-linearizability violations: random \
     op programs under seeded schedule-perturbation plans, recorded \
     histories checked against each target's claimed condition, failures \
     shrunk to a minimal .repro."
  in
  let run targets seed iters budget condition threads phases steps mega out
      replay =
    let die msg =
      Printf.eprintf "error: %s\n" msg;
      exit 2
    in
    let attempt f x =
      try f x with Invalid_argument msg | Sys_error msg -> die msg
    in
    match replay with
    | Some path -> (
        let passed ops =
          Printf.printf
            "replay %s: PASSED — the recorded violation did not reproduce \
             (%d ops)\n"
            path ops;
          exit 1
        in
        let repro = attempt Fuzz.Repro.load path in
        if Fuzz.Mega.is_mega_name repro.Fuzz.Repro.target then begin
          let _, out = attempt Fuzz.Mega.replay path in
          match out.Fuzz.Mega.verdict with
          | Lin.Stream.Reject { index; reason } ->
              print_endline reason;
              Printf.printf
                "replay %s: streaming violation reproduced at event %d \
                 (%d ops)\n"
                path index out.Fuzz.Mega.ops
          | Lin.Stream.Accept -> passed out.Fuzz.Mega.ops
        end
        else
          let r, out = attempt Fuzz.Driver.replay path in
          match out.Fuzz.Exec.verdict with
          | Fuzz.Exec.Violation msg ->
              print_endline msg;
              Printf.printf
                "replay %s: violation of %s reproduced (%d ops)\n" path
                (Lin.Order.condition_name r.Fuzz.Repro.condition)
                out.Fuzz.Exec.ops
          | Fuzz.Exec.Pass -> passed out.Fuzz.Exec.ops)
    | None ->
        let names = if targets = [] then fuzz_target_names else targets in
        let mega_names, exec_names =
          List.partition Fuzz.Mega.is_mega_name names
        in
        let ts = List.map (attempt Fuzz.Exec.find) exec_names in
        let size =
          let d = Fuzz.Program.default_size in
          Fuzz.Program.cap
            {
              Fuzz.Program.threads =
                (if threads > 0 then threads else d.Fuzz.Program.threads);
              phases = (if phases > 0 then phases else d.Fuzz.Program.phases);
              steps = (if steps > 0 then steps else d.Fuzz.Program.steps);
            }
        in
        let budget = if budget > 0. then budget else infinity in
        (* One repro file per target when several run. *)
        let file_for name =
          if List.length names > 1 then
            Some (Printf.sprintf "%d-%s.repro" seed (sanitize name))
          else None
        in
        let failed = ref false in
        List.iter
          (fun name ->
            let t = attempt Fuzz.Mega.target_of_string name in
            let file = file_for name in
            let r =
              Fuzz.Mega.fuzz
                ~threads:(if threads > 0 then threads else 3)
                ~steps:(if mega > 0 then mega else 2000)
                ?condition ~iters ~out_dir:out ?file ~seed t
            in
            match r.Fuzz.Mega.first_failure with
            | None ->
                Printf.printf
                  "fuzz %-14s [%s]: %d iters, %d ops, ok \
                   (streaming-certified)\n"
                  r.Fuzz.Mega.target
                  (Lin.Order.condition_name r.Fuzz.Mega.condition)
                  r.Fuzz.Mega.iters r.Fuzz.Mega.total_ops
            | Some msg ->
                failed := true;
                print_endline msg;
                Printf.printf
                  "fuzz %s [%s]: VIOLATION at iter %d — shrunk to %d ops, \
                   violating event %s, repro: %s\n"
                  r.Fuzz.Mega.target
                  (Lin.Order.condition_name r.Fuzz.Mega.condition)
                  r.Fuzz.Mega.iters
                  (Option.value ~default:0 r.Fuzz.Mega.shrunk_ops)
                  (match r.Fuzz.Mega.violating_index with
                  | Some i -> string_of_int i
                  | None -> "?")
                  (Option.value ~default:"?" r.Fuzz.Mega.repro_path))
          mega_names;
        List.iter
          (fun t ->
            let file = file_for t.Fuzz.Exec.name in
            let r =
              Fuzz.Driver.fuzz ~size ?condition ~iters ~budget ~out_dir:out
                ?file ~seed t
            in
            (match r.Fuzz.Driver.first_failure with
            | None ->
                Printf.printf
                  "fuzz %-14s [%s]: %d iters, %d ops, ok, inert %d/%d steps \
                   (%d/%d kills)%s\n"
                  r.Fuzz.Driver.target
                  (Lin.Order.condition_name r.Fuzz.Driver.condition)
                  r.Fuzz.Driver.iters r.Fuzz.Driver.total_ops
                  r.Fuzz.Driver.inert_steps r.Fuzz.Driver.plan_steps
                  r.Fuzz.Driver.inert_kills r.Fuzz.Driver.kill_steps
                  (if r.Fuzz.Driver.fsc_witnesses > 0 then
                     Printf.sprintf " (%d Figure-3 Fsc witnesses)"
                       r.Fuzz.Driver.fsc_witnesses
                   else "")
            | Some msg ->
                failed := true;
                print_endline msg;
                Printf.printf
                  "fuzz %s [%s]: VIOLATION at iter %d — shrunk to %d ops / \
                   %d plan steps, repro: %s\n"
                  r.Fuzz.Driver.target
                  (Lin.Order.condition_name r.Fuzz.Driver.condition)
                  r.Fuzz.Driver.iters
                  (Option.value ~default:0 r.Fuzz.Driver.shrunk_ops)
                  (Option.value ~default:0 r.Fuzz.Driver.shrunk_plan)
                  (Option.value ~default:"?" r.Fuzz.Driver.repro_path)))
          ts;
        if !failed then exit 1
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ fuzz_targets_arg $ fuzz_seed_arg $ fuzz_iters_arg
      $ fuzz_budget_arg $ fuzz_condition_arg $ fuzz_threads_arg
      $ fuzz_phases_arg $ fuzz_steps_arg $ fuzz_mega_arg $ fuzz_out_arg
      $ fuzz_replay_arg)

let () =
  let doc = "Futures-based shared data structures (PODC 2014 reproduction)." in
  let info = Cmd.info "flbench" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ list_cmd; run_cmd; check_cmd; fuzz_cmd ]))
