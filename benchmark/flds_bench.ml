(* flds_bench: the repository's benchmark. See README.md.

     flds_bench run --all [--seed N] [--seconds S] [--smoke] [--out FILE]
     flds_bench run --workload W [--seed N] [--seconds S] [--trace 0|1] [--json]
     flds_bench compare A B
     flds_bench compare --self-test A
     flds_bench manifest

   [run --all] runs each workload in its own child process, so set-up
   time and peak RSS are per workload, and writes one flat record.
   [--json] ends the output with one JSON line: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1. *)

module H = Harness

let run_seconds = 10

type opts = {
  mutable workload : string option;
  mutable all : bool;
  mutable seed : int;
  mutable seconds : float option;
  mutable trace : bool;
  mutable smoke : bool;
  mutable json : bool;
  mutable out : string option;
}

let usage () =
  prerr_string
    "usage: flds_bench run (--all | --workload W) [--seed N] [--seconds S]\n\
    \                      [--trace 0|1] [--smoke] [--json] [--out FILE]\n\
    \       flds_bench compare A B | compare --self-test A | manifest\n";
  exit 2

let parse_run args =
  let o =
    {
      workload = None;
      all = false;
      seed = 2014;
      seconds = None;
      trace = true;
      smoke = false;
      json = false;
      out = None;
    }
  in
  let rec go = function
    | [] -> o
    | "--all" :: tl -> o.all <- true; go tl
    | "--smoke" :: tl -> o.smoke <- true; go tl
    | "--json" :: tl -> o.json <- true; go tl
    | "--workload" :: w :: tl -> o.workload <- Some w; go tl
    | "--seed" :: n :: tl -> o.seed <- int_of_string n; go tl
    | "--seconds" :: s :: tl -> o.seconds <- Some (float_of_string s); go tl
    | "--trace" :: t :: tl -> o.trace <- t <> "0"; go tl
    | "--out" :: f :: tl -> o.out <- Some f; go tl
    | a :: _ -> Printf.eprintf "flds_bench: unexpected argument %s\n" a; usage ()
  in
  try go args with Failure _ -> usage ()

let config o =
  {
    H.seed = o.seed;
    seconds = Option.value o.seconds ~default:(if o.smoke then 0.2 else 12.0);
    window_s = (if o.smoke then 0.04 else 0.1);
    warmup_s = (if o.smoke then 0.05 else 2.0);
    trace = o.trace;
    setups = (if o.smoke then 2 else 20);
    cert_ops = (if o.smoke then 2_000 else 500_000);
    smoke = o.smoke;
  }

(* Where runs write traces and, by default, the record. *)
let out_dir = Filename.concat "benchmark" "out"

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

(* ------------------------------ readings ------------------------------ *)

type reading = { name : string; unit_ : string; value : float; samples : float array }

let reading name unit_ samples = { name; unit_; value = Stats.summarise Median samples; samples }

(* The end-to-end estimator: the samples (windows or set-up batches), in
   time order, are cut into [groups] consecutive groups, each summarised
   by [pick], and [pick] over the group values is the metric — the best
   window of the run, or the median of the group medians. The group
   values are the recorded samples; [compare] reads their spread. *)
let groups = 5

let grouped ~pick name unit_ samples =
  let n = Array.length samples in
  let k = max 1 (min groups n) in
  let g =
    Array.init k (fun i ->
        Stats.summarise pick (Array.sub samples (i * n / k) (((i + 1) * n / k) - (i * n / k))))
  in
  { name; unit_; value = Stats.summarise pick g; samples = g }

let best_cpu ws = Stats.summarise Min (Array.map H.cpu_per_op ws)

let single name unit_ v = { name; unit_; value = (if Float.is_finite v then v else 0.0); samples = [||] }
let pct p a = if Array.length a = 0 then 0.0 else Stats.percentile a p

let print_readings title rs =
  Printf.printf "  %s\n  %-30s %-7s %14s %14s %14s %4s\n" title "metric" "unit" "value" "q1" "q3" "n";
  List.iter
    (fun r ->
      if r.samples = [||] then Printf.printf "  %-30s %-7s %14.6g\n" r.name r.unit_ r.value
      else begin
        let q1, _, q3 = Stats.quartiles r.samples in
        Printf.printf "  %-30s %-7s %14.6g %14.6g %14.6g %4d\n" r.name r.unit_ r.value q1 q3
          (Array.length r.samples)
      end)
    rs

(* --------------------------- one workload ----------------------------- *)

type outcome = {
  e2e : reading list;
  layer : reading list; (* the per-layer metrics of Spec.per_layer *)
  extra : reading list; (* printed and recorded only *)
  checks : (string * string option) list;
  attempted : int;
  failed : int;
}

let latency_summary (r : _ H.result) ~service =
  let all = Array.concat (Array.to_list (Array.map (H.window_lat r.H.probes) r.H.windows)) in
  let n = Array.length all in
  Printf.printf "  %s: %d samples over the measured windows" (if service then "sojourn" else "op latency") n;
  if n > 0 then begin
    Printf.printf ", p50 %.2f us" (pct 50.0 all /. 1e3);
    match Stats.tail_percentile n with
    | Some p when p > 50.0 -> Printf.printf ", p%g %.2f us (>= 10 samples beyond)" p (pct p all /. 1e3)
    | _ -> ()
  end;
  print_newline ()

let measure_common ~kind ~api_idx (r : _ H.result) =
  let service = match kind with Spec.Service _ -> true | Spec.Closed _ -> false in
  let probes = r.H.probes in
  let ws = r.H.windows in
  let cpu = Array.map H.cpu_per_op ws in
  let lats = Array.map (H.window_lat probes) ws in
  let grouped name = grouped ~pick:(Spec.pick kind name) name in
  let e2e =
    [
      grouped "throughput_ops_s" "ops/s" (Array.map H.rate ws);
      grouped "cpu_ns_per_op" "ns" cpu;
      grouped "latency_p50_us" "us" (Array.map (fun a -> pct 50.0 a /. 1e3) lats);
      grouped "setup_s" "s" r.H.setup_s;
      reading "peak_rss_mb" "MB" [| float_of_int r.H.maxrss_kb /. 1024.0 |];
    ]
  in
  let host =
    [
      reading "host.steal_pct" "%" (Array.map H.steal ws);
      reading "host.cpu_util" "frac" (Array.map H.util ws);
    ]
  in
  let layer, extra =
    match (r.H.alt_ws, r.H.traced_ws) with
    | [||], _ | _, [||] -> ([], [])
    | alt_ws, traced_ws ->
        let bufs = Array.map (fun (p : H.probe) -> p.spans) probes in
        let d = Spans.durations bufs in
        let sum f = Array.fold_left (fun n p -> n + f p) 0 probes in
        let meas = H.span ws in
        let ops = float_of_int (max 1 (H.done_in meas)) in
        let api name =
          match api_idx name with Some i -> float_of_int (H.api_delta meas i) | None -> 0.0
        in
        let obs_w = if service then meas else H.span alt_ws in
        let od = Obs.Metrics.diff (snd obs_w).H.obs (fst obs_w).H.obs in
        let splices = ref 0 and spliced = ref 0 in
        for k = 0 to Obs.Event.kind_count - 1 do
          if k <> Obs.Event.k_slack_drain then begin
            splices := !splices + od.Obs.Metrics.splice_kind_splices.(k);
            spliced := !spliced + od.Obs.Metrics.splice_kind_ops.(k)
          end
        done;
        let obs_ops = float_of_int (max 1 (H.done_in obs_w)) in
        (* Overheads compare best windows of equal count, the side phase's
           against the measure windows just before it. *)
        let last = Array.sub ws (Array.length ws - Array.length alt_ws) (Array.length alt_ws) in
        let base = best_cpu last and alt = best_cpu alt_ws and traced = best_cpu traced_ws in
        let drain_self =
          Array.concat
            (Array.to_list
               (Array.map (fun (p : H.probe) -> Stats.of_ints p.drain_self p.drain_self_n) probes))
        in
        let inv = d (if service then Spans.store else Spans.invoke) in
        let force = d Spans.force and window = d Spans.window and drain = d Spans.drain in
        let layer =
          [
            single "futures.invoke_ns.p50" "ns" (pct 50.0 inv);
            single "futures.invoke_ns.p99" "ns" (pct 99.0 inv);
            single "futures.force_ns.p50" "ns" (pct 50.0 force);
            single "futures.force_ns.p99" "ns" (pct 99.0 force);
            single "futures.ready_at_invoke" "frac"
              (Stats.ratio (sum (fun p -> p.H.ready_inv)) (sum (fun p -> p.H.n_inv)));
            single "futures.ready_at_force" "frac"
              (Stats.ratio (sum (fun p -> p.H.ready_force)) (sum (fun p -> p.H.n_force)));
            single "fl.window_us.p50" "us" (pct 50.0 window /. 1e3);
            single "fl.window_us.p99" "us" (pct 99.0 window /. 1e3);
            single "fl.drain_ns.p50" "ns" (pct 50.0 drain);
            single "fl.drain_ns.p99" "ns" (pct 99.0 drain);
            single "fl.drain_self_ns.p50" "ns" (pct 50.0 drain_self);
            single "fl.splice_batch.mean" "ops" (Stats.ratio !spliced !splices);
            single "fl.splices_per_kop" "1/kop" (1000.0 *. float_of_int !splices /. obs_ops);
            single "fl.pendingness_us.mean" "us"
              (Obs.Histogram.mean_value od.Obs.Metrics.pendingness_ns /. 1e3);
            single "lockfree.cas_per_op" "count" (api "cas" /. ops);
            single "gc.minor_words_per_op" "words" (H.words_per_op probes);
            single "obs.overhead_pct" "%"
              (100.0 *. (if service then (base /. alt) -. 1.0 else (alt /. base) -. 1.0));
            single "trace.overhead_pct" "%" (100.0 *. ((traced /. base) -. 1.0));
            reading "latency_p99_us" "us" (Array.map (fun a -> pct 99.0 a /. 1e3) lats);
            single "shard.transfers_per_kreq" "1/kreq" (1000.0 *. api "shard.grants" /. ops);
            single "shard.grant_retries_per_kreq" "1/kreq" (1000.0 *. api "shard.retries" /. ops);
            single "shard.degraded_finds_per_kreq" "1/kreq" (1000.0 *. api "shard.degraded" /. ops);
            single "overload.shed_frac" "frac"
              (let o = api "offered" in if o = 0.0 then 0.0 else api "sheds" /. o);
          ]
        in
        let service_extra =
          if not service then []
          else
            let q = d Spans.queueing and adm = d Spans.admit and jq = d Spans.jobq in
            let stage = Service_load.api_index "stage" in
            let stage_max =
              Array.fold_left (fun m (a, b) -> max m (max a.H.api.(stage) b.H.api.(stage))) 0 ws
            in
            [
              single "arrival.late_us.p50" "us" (pct 50.0 q /. 1e3);
              single "arrival.late_us.p99" "us" (pct 99.0 q /. 1e3);
              single "overload.admit_ns.p50" "ns" (pct 50.0 adm);
              single "overload.admit_ns.p99" "ns" (pct 99.0 adm);
              single "jobq.invoke_ns.p50" "ns" (pct 50.0 jq);
              single "overload.retries_per_kreq" "1/kreq" (1000.0 *. api "retries" /. ops);
              single "overload.max_stage" "stage" (float_of_int stage_max);
              single "overload.epochs" "count" (api "epochs");
              single "shard.recovers" "count" (api "shard.recovers");
              single "shard.poisoned" "count" (api "shard.poisoned");
              single "shard.transfer_us.p999" "us"
                (float_of_int (Obs.Metrics.transfer_p999 od) /. 1e3);
              single "svc.child_coverage.p50" "frac" (pct 50.0 (Spans.coverage bufs Spans.request));
            ]
        in
        ( layer,
          service_extra
          @ [
              single "trace.spans" "count" (float_of_int (Spans.recorded bufs));
              single "trace.dropped" "count" (float_of_int (Spans.dropped bufs));
              single "trace.sample_every" "ops" (float_of_int probes.(0).H.span_every);
            ] )
  in
  (e2e, layer, host @ extra)

let run_workload (w : Spec.workload) (cfg : H.config) ~write_trace =
  let ms = cfg.H.seconds in
  let lat_closed = int_of_float (ms *. 60_000.0) + 4096
  and lat_service = int_of_float (ms *. Service_load.rate_per_domain *. 2.0) + 4096 in
  let spans = 1 lsl 19 in
  let export (r : _ H.result) =
    if write_trace && cfg.H.trace then begin
      mkdir_p out_dir;
      let path = Filename.concat out_dir (w.Spec.name ^ ".trace.json") in
      let n = Spans.export ~path ~limit:50_000 (Array.map (fun (p : H.probe) -> p.spans) r.H.probes) in
      Printf.printf "  trace: %s (%d events)\n" path n
    end
  in
  match w.Spec.kind with
  | Spec.Closed spec ->
      let r =
        H.run cfg (Closed.impl spec ~seed:cfg.H.seed)
          ~probe_sizes:(lat_closed, spans, cfg.H.cert_ops)
      in
      export r;
      latency_summary r ~service:false;
      let e2e, layer, extra =
        measure_common ~kind:w.Spec.kind ~api_idx:(function "cas" -> Some 0 | _ -> None) r
      in
      let checks, cert = Closed.checks spec r.H.ctx r.H.probes in
      let cert_extra =
        match cert with
        | None -> []
        | Some (rate, n) ->
            [
              single "lin.certify_events_per_s" "1/s" rate;
              single "lin.certified_events" "count" (float_of_int n);
              single "lin.cert_phase_s" "s" r.H.cert_s;
            ]
      in
      let attempted = Array.fold_left (fun n (p : H.probe) -> n + p.ops) 0 r.H.probes in
      { e2e; layer; extra = extra @ cert_extra; checks; attempted; failed = 0 }
  | Spec.Service backend ->
      let r =
        H.run cfg (Service_load.impl backend ~seed:cfg.H.seed) ~probe_sizes:(lat_service, spans, 0)
      in
      export r;
      latency_summary r ~service:true;
      let e2e, layer, extra =
        measure_common ~kind:w.Spec.kind
          ~api_idx:(fun n -> try Some (Service_load.api_index n) with _ -> None)
          r
      in
      let checks, attempted, failed = Service_load.checks r.H.ctx in
      (* The request spans tile each request; their children must account
         for the request's duration. *)
      let coverage =
        match List.find_opt (fun x -> x.name = "svc.child_coverage.p50") extra with
        | Some c when (not cfg.H.smoke) && c.value < 0.95 ->
            Some (Printf.sprintf "child spans cover %.1f%% of svc.request at the median" (100.0 *. c.value))
        | _ -> None
      in
      let failed_frac = Stats.ratio failed attempted in
      {
        e2e;
        layer;
        extra = extra @ [ single "failed_frac" "frac" failed_frac ];
        checks = checks @ [ ("spans", coverage) ];
        attempted;
        failed;
      }

let json_line o ~correct ~trace =
  let rs = if trace then o.layer else o.e2e in
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    (max 1 o.attempted) o.failed
    (String.concat ", "
       (List.map
          (fun r -> Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Spec.json_string r.name) (num r.value)
              (Spec.json_string r.unit_))
          rs))

let record_lines w o =
  List.concat_map
    (fun r -> Record.lines ~workload:w ~metric:r.name ~unit_:r.unit_ ~value:r.value r.samples)
    (o.e2e @ o.layer @ o.extra)

let meta o (cfg : H.config) =
  [
    "# flds_bench record: one \"workload metric value unit\" line per reading; metric@i = window, or group of windows or set-ups, i";
    Printf.sprintf "meta rev %s" (Host.git_rev ());
    Printf.sprintf "meta seed %d" o.seed;
    Printf.sprintf "meta nproc %d" (Host.nproc ());
    Printf.sprintf "meta ocaml %s" Sys.ocaml_version;
    Printf.sprintf "meta windows %d x %.3f s, warm-up %.3f s, %d set-up batches" (H.windows cfg)
      cfg.H.window_s cfg.H.warmup_s cfg.H.setups;
  ]

let write_lines path lines =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun l -> output_string oc l; output_char oc '\n') lines)

let run_single o name =
  let w = match Spec.find_workload name with Some w -> w | None -> Printf.eprintf "unknown workload %s\n" name; exit 2 in
  let cfg = config o in
  Printf.printf "== %s: %s (seed %d, %d x %.2f s windows)\n%!" w.Spec.name w.Spec.shape o.seed
    (H.windows cfg) cfg.H.window_s;
  let t0 = Sync.Mono.now () in
  let out =
    try run_workload w cfg ~write_trace:(not o.smoke)
    with H.Failed e ->
      Printf.printf "  VIOLATION %s: client: %s\n%!" w.Spec.name e;
      exit 1
  in
  if not o.smoke then begin
    print_readings "end-to-end (best window, or median of group medians; samples: 5 groups)" out.e2e;
    if out.layer <> [] then print_readings "per-layer (traced phase; obs phase or service windows)" out.layer;
    print_readings "diagnostics" out.extra
  end;
  let steal = List.find (fun r -> r.name = "host.steal_pct") out.extra in
  let noisy = List.filter (fun v -> v > 10.0) (Array.to_list steal.samples) in
  Printf.printf "  host: nproc %d, OCaml %s, %d window(s) with steal > 10%% (kept)\n" (Host.nproc ())
    Sys.ocaml_version (List.length noisy);
  let violations = List.filter_map (fun (c, v) -> Option.map (fun v -> (c, v)) v) out.checks in
  List.iter (fun (c, v) -> Printf.printf "  VIOLATION %s: %s: %s\n" w.Spec.name c v) violations;
  if violations = [] then
    Printf.printf "  checks ok: %s\n" (String.concat ", " (List.map fst out.checks));
  Printf.printf "  attempted %d, failed %d, %.1f s\n%!" out.attempted out.failed (Sync.Mono.now () -. t0);
  let lines = List.map Record.to_string (record_lines w.Spec.name out) in
  Option.iter (fun path -> write_lines path lines) o.out;
  let correct = violations = [] in
  if o.json then print_endline (json_line out ~correct ~trace:o.trace);
  if not correct then exit 1

let run_all o =
  let cfg = config o in
  let exe = Sys.executable_name in
  let out =
    match o.out with
    | Some f -> Some f
    | None -> if o.smoke then None else Some (Filename.concat out_dir "record.txt")
  in
  let t0 = Sync.Mono.now () in
  let results =
    List.map
      (fun (w : Spec.workload) ->
        let part = Option.map (fun f -> f ^ "." ^ w.Spec.name) out in
        let args =
          [ exe; "run"; "--workload"; w.Spec.name; "--seed"; string_of_int o.seed; "--seconds";
            string_of_float cfg.H.seconds; "--trace"; (if o.trace then "1" else "0") ]
          @ (if o.smoke then [ "--smoke" ] else [])
          @ match part with Some p -> [ "--out"; p ] | None -> []
        in
        let pid = Unix.create_process exe (Array.of_list args) Unix.stdin Unix.stdout Unix.stderr in
        let _, status = Unix.waitpid [] pid in
        let ok = status = Unix.WEXITED 0 in
        if not ok then Printf.printf "!! %s failed\n%!" w.Spec.name;
        (part, ok))
      Spec.workloads
  in
  (match out with
  | None -> ()
  | Some path ->
      let body =
        List.concat_map
          (fun (part, _) ->
            match part with
            | Some p when Sys.file_exists p ->
                let l = In_channel.with_open_bin p In_channel.input_all in
                Sys.remove p;
                List.filter (( <> ) "") (String.split_on_char '\n' l)
            | _ -> [])
          results
      in
      write_lines path (meta o cfg @ body);
      Printf.printf "wrote %s\n" path);
  Printf.printf "all workloads: %.1f s\n%!" (Sync.Mono.now () -. t0);
  if List.exists (fun (_, ok) -> not ok) results then exit 1

let () =
  Obs.set_enabled false;
  Obs.set_sample_every 8;
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> (
      let o = parse_run args in
      match (o.all, o.workload) with
      | true, None -> run_all o
      | false, Some w -> run_single o w
      | _ -> usage ())
  | [ "compare"; "--self-test"; a ] -> if not (Record.self_test (Record.read a)) then exit 1
  | [ "compare"; a; b ] ->
      let v = Record.compare (Record.read a) (Record.read b) in
      if List.exists (fun (_, _, v) -> v = Record.Worse) v then exit 1
  | [ "manifest" ] -> print_string (Spec.manifest ~run_seconds)
  | _ -> usage ()
