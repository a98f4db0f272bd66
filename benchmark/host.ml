(* Host facts and process-wide resource readings. Everything here is
   read-only and fail-soft: a host without /proc or outside a git
   checkout reports "unknown"/nan instead of failing the run. *)

external cpu_ns : unit -> int = "flds_bench_cpu_ns" [@@noalloc]
external thread_cpu_ns : unit -> int = "flds_bench_thread_cpu_ns" [@@noalloc]
external maxrss_kb : unit -> int = "flds_bench_maxrss_kb" [@@noalloc]

let now_ns = Sync.Mono.now_ns_int
let nproc () = Domain.recommended_domain_count ()

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (In_channel.input_all ic))

(* Aggregate CPU jiffies from the first line of /proc/stat:
   user nice system idle iowait irq softirq steal. *)
type stat = { total : int; idle : int; steal : int }

let zero_stat = { total = 0; idle = 0; steal = 0 }

let stat () =
  match read_file "/proc/stat" with
  | None -> zero_stat
  | Some s -> (
      let line = List.hd (String.split_on_char '\n' s) in
      match
        String.split_on_char ' ' line
        |> List.filter (( <> ) "")
        |> List.tl |> List.map int_of_string
      with
      | user :: nice :: system :: idle :: iowait :: irq :: softirq :: steal :: _ ->
          {
            total = user + nice + system + idle + iowait + irq + softirq + steal;
            idle = idle + iowait;
            steal;
          }
      | _ | (exception _) -> zero_stat)

(* Steal percentage and CPU utilisation (busy share of all CPUs, steal
   excluded) between two readings; nan when /proc/stat is unavailable. *)
let steal_pct a b =
  let dt = b.total - a.total in
  if dt <= 0 then nan else 100.0 *. float_of_int (b.steal - a.steal) /. float_of_int dt

let cpu_util a b =
  let dt = b.total - a.total in
  if dt <= 0 then nan
  else
    float_of_int (dt - (b.idle - a.idle) - (b.steal - a.steal)) /. float_of_int dt

(* The commit the checkout was built from, read straight from .git (no
   subprocess); "unknown" outside a git checkout. *)
let git_rev () =
  let trim = String.trim in
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      let head = trim head in
      match String.index_opt head ' ' with
      | Some i when String.sub head 0 i = "ref:" -> (
          let r = trim (String.sub head (i + 1) (String.length head - i - 1)) in
          match read_file (".git/" ^ r) with
          | Some h -> trim h
          | None -> (
              match read_file ".git/packed-refs" with
              | None -> "unknown"
              | Some p -> (
                  String.split_on_char '\n' p
                  |> List.find_map (fun l ->
                         match String.split_on_char ' ' l with
                         | [ h; name ] when name = r -> Some h
                         | _ -> None)
                  |> function Some h -> h | None -> "unknown")))
      | _ -> head)
