(* The benchmark's flat record: one "workload metric value unit" line
   per reading. A metric's per-window (or per-set-up) readings follow
   its summary as "metric@i" lines; "#" lines are comments and "meta"
   lines carry host facts. [compare] reads nothing else, so no JSON
   parser is needed. *)

type line = { workload : string; metric : string; value : float; unit_ : string }

let fmt_value v = Printf.sprintf "%.17g" v

let to_string l = String.concat " " [ l.workload; l.metric; fmt_value l.value; l.unit_ ]

(* A metric's summary line followed by its samples. *)
let lines ~workload ~metric ~unit_ ~value samples =
  { workload; metric; value; unit_ }
  :: List.mapi
       (fun i v -> { workload; metric = Printf.sprintf "%s@%d" metric (i + 1); value = v; unit_ })
       (Array.to_list samples)

let read path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' (String.trim l) with
         | [ workload; metric; v; unit_ ] when workload <> "meta" && workload.[0] <> '#' -> (
             match float_of_string_opt v with
             | Some value -> Some { workload; metric; value; unit_ }
             | None -> None)
         | _ -> None)

(* The summary value of (workload, metric) and its @i readings (the
   summary alone when it has none). *)
let reading lines ~workload ~metric =
  let prefix = metric ^ "@" in
  let at =
    List.filter_map
      (fun l ->
        if l.workload = workload && String.starts_with ~prefix l.metric then Some l.value else None)
      lines
  in
  List.find_map
    (fun l ->
      if l.workload = workload && l.metric = metric then
        Some (l.value, if at = [] then [| l.value |] else Array.of_list at)
      else None)
    lines

let workloads lines =
  List.fold_left (fun acc l -> if List.mem l.workload acc then acc else acc @ [ l.workload ]) [] lines

(* ------------------------------ compare ------------------------------- *)

type verdict = Better | Within | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Within -> "within"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* B against A for one metric: unresolved when either side's estimate
   spreads (Stats.spread over its recorded samples) more than the bound,
   else better/worse when the reported values differ by more than the
   bound in the metric's direction. *)
let judge ~pick (m : Spec.metric) (va, sa) (vb, sb) =
  let worse_by =
    let rel = (vb -. va) /. Float.abs va in
    match m.better with Spec.Higher -> -.rel | Spec.Lower -> rel
  in
  if Float.max (Stats.spread pick sa) (Stats.spread pick sb) > m.bound then (Unresolved, worse_by)
  else if worse_by > m.bound then (Worse, worse_by)
  else if worse_by < -.m.bound then (Better, worse_by)
  else (Within, worse_by)

(* Every (workload, end-to-end metric) present on both sides; returns
   the verdicts, printing a table when [print]. *)
let compare ?(print = true) a b =
  let out = ref [] in
  if print then
    Printf.printf "%-16s %-17s %-6s %34s %34s %8s  %s\n" "workload" "metric" "unit"
      "A value [q1, q3] n" "B value [q1, q3] n" "change" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun (m : Spec.metric) ->
          match (reading a ~workload ~metric:m.name, reading b ~workload ~metric:m.name) with
          | Some ra, Some rb ->
              let pick =
                match Spec.find_workload workload with
                | Some w -> Spec.pick w.Spec.kind m.name
                | None -> Stats.Median
              in
              let v, worse_by = judge ~pick m ra rb in
              out := (workload, m.name, v) :: !out;
              if print then begin
                let side (v, s) =
                  let q1, _, q3 = Stats.quartiles s in
                  Printf.sprintf "%.4g [%.4g, %.4g] %d" v q1 q3 (Array.length s)
                in
                Printf.printf "%-16s %-17s %-6s %34s %34s %+7.1f%%  %s\n" workload m.name m.unit_
                  (side ra) (side rb) (100.0 *. worse_by) (verdict_name v)
              end
          | _ -> ())
        Spec.end_to_end)
    (workloads a);
  List.rev !out

(* A copy of [lines] with every end-to-end reading made worse by
   max(20%, twice its bound), in the metric's direction. *)
let doctor lines =
  List.map
    (fun l ->
      let base = match String.index_opt l.metric '@' with Some i -> String.sub l.metric 0 i | None -> l.metric in
      match List.find_opt (fun (m : Spec.metric) -> m.name = base) Spec.end_to_end with
      | None -> l
      | Some m ->
          let d = Float.max 0.2 (2.0 *. m.bound) in
          let value = match m.better with Spec.Higher -> l.value *. (1.0 -. d) | Spec.Lower -> l.value *. (1.0 +. d) in
          { l with value })
    lines

(* The compare self-test: a record against itself has nothing worse, and
   against its doctored copy every resolved metric is worse. *)
let self_test lines =
  let same = compare ~print:false lines lines in
  let doctored = compare ~print:false lines (doctor lines) in
  let count v l = List.length (List.filter (fun (_, _, v') -> v' = v) l) in
  let problems =
    (if same = [] then [ "the record has no end-to-end metrics" ] else [])
    @ (if count Worse same > 0 then [ "a record compared with itself reads worse" ] else [])
    @ (if count Worse doctored = 0 then [ "the doctored record is not flagged worse" ] else [])
    @
    if count Within doctored + count Better doctored > 0 then
      [ "a doctored metric reads within bounds or better" ]
    else []
  in
  Printf.printf "compare self-test: %d metrics; doctored copy: %d worse, %d unresolved\n"
    (List.length same) (count Worse doctored) (count Unresolved doctored);
  List.iter (Printf.printf "compare self-test FAILED: %s\n") problems;
  problems = []
