(* The benchmark's definition: its workloads, and the metrics it reports
   with their units, directions and regression bounds. BENCHMARK.json at
   the repository root is generated from this module
   ([flds_bench manifest]) and a test keeps the two identical, so
   [compare] judges records against exactly the published bounds. *)

type better = Higher | Lower

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float; (* end-to-end only: tolerated worsening, share of the median *)
}

let m ?(bound = 0.0) name unit_ better = { name; unit_; better; bound }

(* Reported on every workload with --trace 0, measured with tracing off. *)
let end_to_end =
  [
    m "throughput_ops_s" "ops/s" Higher ~bound:0.25;
    m "cpu_ns_per_op" "ns" Lower ~bound:0.25;
    m "latency_p50_us" "us" Lower ~bound:0.25;
    m "setup_s" "s" Lower ~bound:0.25;
    m "peak_rss_mb" "MB" Lower ~bound:0.15;
  ]

(* Reported on every workload with --trace 1. README.md maps each to the
   end-to-end metric and workload it should move. *)
let per_layer =
  [
    m "futures.invoke_ns.p50" "ns" Lower;
    m "futures.invoke_ns.p99" "ns" Lower;
    m "futures.force_ns.p50" "ns" Lower;
    m "futures.force_ns.p99" "ns" Lower;
    m "futures.ready_at_invoke" "frac" Higher;
    m "futures.ready_at_force" "frac" Higher;
    m "fl.window_us.p50" "us" Lower;
    m "fl.window_us.p99" "us" Lower;
    m "fl.drain_ns.p50" "ns" Lower;
    m "fl.drain_ns.p99" "ns" Lower;
    m "fl.drain_self_ns.p50" "ns" Lower;
    m "fl.splice_batch.mean" "ops" Higher;
    m "fl.splices_per_kop" "1/kop" Lower;
    m "fl.pendingness_us.mean" "us" Lower;
    m "lockfree.cas_per_op" "count" Lower;
    m "gc.minor_words_per_op" "words" Lower;
    m "obs.overhead_pct" "%" Lower;
    m "trace.overhead_pct" "%" Lower;
    m "latency_p99_us" "us" Lower;
    m "shard.transfers_per_kreq" "1/kreq" Lower;
    m "shard.grant_retries_per_kreq" "1/kreq" Lower;
    m "shard.degraded_finds_per_kreq" "1/kreq" Lower;
    m "overload.shed_frac" "frac" Lower;
  ]

type kind = Closed of Closed.spec | Service of Service_load.backend

type workload = { name : string; why : string; kind : kind; shape : string }

let closed structure impl slack cert = Closed { Closed.structure; impl; slack; cert }

let workloads =
  [
    {
      name = "stack-direct";
      shape = "closed loop, 2 domains, weak stack, slack 1, 50/50 push/pop";
      why =
        "Slack 1 leaves nothing to eliminate or batch: every op pays future create, force and a \
         one-op splice, isolating the futures/window cost.";
      kind = closed Closed.Stack "weak" 1 false;
    };
    {
      name = "stack-elim";
      shape = "closed loop, 2 domains, weak stack, slack 20, 50/50 push/pop";
      why =
        "Same stack with a 20-op window: most ops eliminate inside the handle and rarely touch \
         the shared Treiber stack, so elimination does the work.";
      kind = closed Closed.Stack "weak" 20 true;
    };
    {
      name = "queue-splice";
      shape = "closed loop, 2 domains, weak queue, slack 20, 50/50 enq/deq";
      why =
        "A FIFO allows no elimination: every op crosses the pending window and a single-CAS \
         multi-node splice onto the MS queue; elimination changes should not move it.";
      kind = closed Closed.Queue "weak" 20 true;
    };
    {
      name = "set-traverse";
      shape =
        "closed loop, 2 domains, medium set, slack 20, 20/20/60 insert/remove/contains, 10K keys \
         half prefilled";
      why =
        "List traversals of ~2,500 nodes per op dominate and futures cost under 5%: covers \
         Medium-FL and mixed reads/writes; futures changes should not move it.";
      kind = closed Closed.Set "medium" 20 false;
    };
    {
      name = "service-central";
      shape = "open loop, Poisson 2 x 15k req/s, weak map + weak queue, slack 16";
      why =
        "The session service users call, below its knee: admission, pacing and window fill \
         dominate, and no shard transfer is on the path.";
      kind = Service Service_load.Central;
    };
    {
      name = "service-sharded";
      shape = "open loop, Poisson 2 x 15k req/s, 8-bucket shard map (50 ms leases) + weak queue";
      why =
        "Same traffic through bucket leases and request/grant/ship/ack transfers: shows transfer \
         changes, which service-central should not show.";
      kind = Service Service_load.Sharded;
    };
  ]

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

(* How each end-to-end metric reads its windows. CPU per op takes the
   best window: windows a noisy neighbour slowed can only read worse. So
   do a closed loop's throughput and latency, which the CPU's speed sets;
   an open loop's are set by its arrival rate, so the service reads the
   median. Set-up time is a median. *)
let pick kind metric =
  match (kind, metric) with
  | _, "cpu_ns_per_op" | Closed _, "latency_p50_us" -> Stats.Min
  | Closed _, "throughput_ops_s" -> Stats.Max
  | _ -> Stats.Median

(* --------------------------- BENCHMARK.json --------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\"" | '\\' -> Buffer.add_string b "\\\\" | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let better_name = function Higher -> "higher" | Lower -> "lower"

let manifest ~run_seconds =
  let obj fields = "{" ^ String.concat ", " fields ^ "}" in
  let kv k v = json_string k ^ ": " ^ v in
  let list ind items =
    "[\n" ^ String.concat ",\n" (List.map (fun s -> ind ^ s) items) ^ "\n  ]"
  in
  let metric ~bound (x : metric) =
    obj
      ([ kv "name" (json_string x.name); kv "unit" (json_string x.unit_);
         kv "better" (json_string (better_name x.better)) ]
      @ if bound then [ kv "bound" (Printf.sprintf "%.2f" x.bound) ] else [])
  in
  String.concat ""
    [
      "{\n";
      "  \"command\": [\"sh\", \"benchmark/run.sh\"],\n";
      "  \"paths\": [\"benchmark\"],\n";
      Printf.sprintf "  \"run_seconds\": %d,\n" run_seconds;
      "  \"workloads\": ";
      list "    "
        (List.map (fun w -> obj [ kv "name" (json_string w.name); kv "why" (json_string w.why) ]) workloads);
      ",\n  \"end_to_end\": ";
      list "    " (List.map (metric ~bound:true) end_to_end);
      ",\n  \"per_layer\": ";
      list "    " (List.map (metric ~bound:false) per_layer);
      "\n}\n";
    ]
