module Rng = Faults.Rng

type report = {
  target : string;
  condition : Lin.Order.condition;
  iters : int;
  total_ops : int;
  violations : int;
  fsc_witnesses : int;
  plan_steps : int;
  inert_steps : int;
  kill_steps : int;
  inert_kills : int;
  repro_path : string option;
  shrunk_ops : int option;
  shrunk_plan : int option;
  first_failure : string option;
}

(* Per-iteration seeds derive from the campaign seed through dedicated
   rng streams, so iteration [i]'s program and plan are pure functions
   of [(seed, i)] — the determinism contract of `flbench fuzz --seed`.
   A kill-plan target's kill steps also depend on a dry run of the
   iteration's program (its kill horizon), which a multi-domain
   schedule can vary. *)
let derived ~seed ~iter =
  let rng = Rng.create ~seed ~stream:iter in
  let prog_seed = Rng.next rng in
  let plan_seed = Rng.next rng in
  (prog_seed, plan_seed)

let default_out_dir = "results/fuzz"

let fuzz ?(size = Program.default_size) ?condition ?(iters = 20)
    ?(budget = infinity) ?(plan_intensity = 12) ?(shrink_tries = 2)
    ?(max_shrink_evals = 400) ?(out_dir = default_out_dir) ?file ~seed
    (t : Exec.target) =
  let condition = Option.value condition ~default:t.condition in
  let deadline =
    if budget = infinity then infinity else Sync.Mono.now () +. budget
  in
  let fails prog plan =
    let rec go k =
      k < shrink_tries
      &&
      match (Exec.run ~condition t prog plan).Exec.verdict with
      | Exec.Violation _ -> true
      | Exec.Pass -> go (k + 1)
    in
    go 0
  in
  let total_ops = ref 0 and fsc = ref 0 in
  let steps = ref 0 and inert = ref 0 in
  let kills = ref 0 and inert_kills = ref 0 in
  let count plan (out : Exec.outcome) =
    let n_kills l =
      List.length (List.filter (fun s -> s.Faults.act = Faults.Kill) l)
    in
    steps := !steps + List.length plan;
    inert := !inert + List.length out.Exec.inert;
    kills := !kills + n_kills plan;
    inert_kills := !inert_kills + n_kills out.Exec.inert
  in
  let rec loop i =
    if i >= iters || Sync.Mono.now () > deadline then None
    else begin
      let prog_seed, plan_seed = derived ~seed ~iter:i in
      let prog = Program.generate ~size t.Exec.kind ~seed:prog_seed in
      let reach =
        if t.Exec.kill_plan then Some (Exec.reach t prog) else None
      in
      let plan =
        Plan.generate ~kills:t.Exec.kill_plan
          ~kill_points:(Exec.kill_points t) ?reach ~intensity:plan_intensity
          ~seed:plan_seed ()
      in
      let out = Exec.run ~condition t prog plan in
      count plan out;
      total_ops := !total_ops + out.Exec.ops;
      if out.Exec.fsc_witness then incr fsc;
      match out.Exec.verdict with
      | Exec.Pass -> loop (i + 1)
      | Exec.Violation msg -> Some (i, prog, plan, msg)
    end
  in
  match loop 0 with
  | None ->
      {
        target = t.Exec.name;
        condition;
        iters;
        total_ops = !total_ops;
        violations = 0;
        fsc_witnesses = !fsc;
        plan_steps = !steps;
        inert_steps = !inert;
        kill_steps = !kills;
        inert_kills = !inert_kills;
        repro_path = None;
        shrunk_ops = None;
        shrunk_plan = None;
        first_failure = None;
      }
  | Some (i, prog, plan, msg) ->
      let prog, plan, _stats =
        Shrink.minimize ~fails ~max_evals:max_shrink_evals prog plan
      in
      let file =
        match file with
        | Some f -> f
        | None -> string_of_int seed ^ ".repro"
      in
      let path = Filename.concat out_dir file in
      Repro.save ~path
        { Repro.target = t.Exec.name; condition; seed; program = prog; plan };
      {
        target = t.Exec.name;
        condition;
        iters = i + 1;
        total_ops = !total_ops;
        violations = 1;
        fsc_witnesses = !fsc;
        plan_steps = !steps;
        inert_steps = !inert;
        kill_steps = !kills;
        inert_kills = !inert_kills;
        repro_path = Some path;
        shrunk_ops = Some (Program.recorded_ops prog);
        shrunk_plan = Some (List.length plan);
        first_failure = Some msg;
      }

let replay path =
  let r = Repro.load path in
  let t = Exec.find r.Repro.target in
  let out = Exec.run ~condition:r.Repro.condition t r.Repro.program r.Repro.plan in
  (r, out)
