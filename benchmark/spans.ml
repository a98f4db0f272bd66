(* The benchmark's own spans, recorded around the calls it makes into
   each layer during the traced phase. One preallocated buffer per
   domain, written only by that domain; nothing allocates on the record
   path. A span is a name, a start and end stamp (monotonic ns), the
   index of its parent span in the same buffer (-1 for a root) and a
   request id. When a buffer is full further spans are counted as
   dropped. *)

let op = 0
let invoke = 1
let window = 2
let force = 3
let drain = 4
let request = 5
let queueing = 6
let admit = 7
let store = 8
let jobq = 9

let names =
  [|
    "fl.op"; "fl.invoke"; "fl.window"; "futures.force"; "fl.drain";
    "svc.request"; "arrival.queueing"; "overload.admit"; "store.invoke";
    "jobq.invoke";
  |]

type t = {
  tag : int array; (* name lor ((parent + 1) lsl 8) *)
  req : int array;
  t0 : int array;
  t1 : int array;
  mutable n : int;
  mutable dropped : int;
}

let create cap =
  {
    tag = Array.make cap 0;
    req = Array.make cap 0;
    t0 = Array.make cap 0;
    t1 = Array.make cap 0;
    n = 0;
    dropped = 0;
  }

let name_of b i = b.tag.(i) land 0xff
let parent_of b i = (b.tag.(i) lsr 8) - 1

(* Reserve a span whose end is not known yet; -1 when the buffer is full.
   Parents are always reserved before their children, so a parent's
   index is lower than its children's. *)
let start b ~name ~parent ~req ~t0 =
  let i = b.n in
  if i >= Array.length b.tag then begin
    b.dropped <- b.dropped + 1;
    -1
  end
  else begin
    b.tag.(i) <- name lor ((parent + 1) lsl 8);
    b.req.(i) <- req;
    b.t0.(i) <- t0;
    b.t1.(i) <- 0;
    b.n <- i + 1;
    i
  end

let finish b i ~t1 = if i >= 0 then b.t1.(i) <- t1

let add b ~name ~parent ~req ~t0 ~t1 =
  let i = start b ~name ~parent ~req ~t0 in
  finish b i ~t1

let closed b i = b.t1.(i) >= b.t0.(i)
let dur b i = b.t1.(i) - b.t0.(i)

(* ------------------------------ analysis ------------------------------ *)

let durations bufs name =
  let acc = ref [] in
  Array.iter
    (fun b ->
      for i = b.n - 1 downto 0 do
        if name_of b i = name && closed b i then
          acc := float_of_int (dur b i) :: !acc
      done)
    bufs;
  Array.of_list !acc

(* Per span: the summed duration of its closed children. *)
let child_time b =
  let c = Array.make b.n 0 in
  for i = 0 to b.n - 1 do
    let p = parent_of b i in
    if p >= 0 && closed b i then c.(p) <- c.(p) + dur b i
  done;
  c

(* Share of each closed [name] span's duration covered by its children. *)
let coverage bufs name =
  let acc = ref [] in
  Array.iter
    (fun b ->
      let c = child_time b in
      for i = 0 to b.n - 1 do
        if name_of b i = name && closed b i && dur b i > 0 then
          acc := (float_of_int c.(i) /. float_of_int (dur b i)) :: !acc
      done)
    bufs;
  Array.of_list !acc

let recorded bufs = Array.fold_left (fun n b -> n + b.n) 0 bufs
let dropped bufs = Array.fold_left (fun n b -> n + b.dropped) 0 bufs

(* ------------------------------- export ------------------------------- *)

(* Chrome trace_event "X" events (load in Perfetto or about:tracing), the
   first [limit] spans of each domain. Request trees overlap in time on
   one domain, so each tree gets a lane (exported as its own tid): the
   lowest lane free at the root's start. Returns the events written. *)
let export ~path ~limit bufs =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let origin =
        Array.fold_left
          (fun m b -> if b.n > 0 then min m b.t0.(0) else m)
          max_int bufs
      in
      output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
      let first = ref true and written = ref 0 in
      Array.iteri
        (fun d b ->
          let n = min b.n limit in
          let root = Array.make n 0 in
          for i = 0 to n - 1 do
            let p = parent_of b i in
            root.(i) <- (if p < 0 then i else root.(p))
          done;
          let roots =
            List.init n Fun.id
            |> List.filter (fun i -> parent_of b i < 0 && closed b i)
            |> List.sort (fun i j -> compare b.t0.(i) b.t0.(j))
          in
          let lane = Array.make n 0 in
          let free = ref [||] in
          List.iter
            (fun r ->
              let ends = !free in
              let k =
                match Array.find_index (fun e -> e <= b.t0.(r)) ends with
                | Some k -> k
                | None ->
                    free := Array.append ends [| 0 |];
                    Array.length ends
              in
              !free.(k) <- b.t1.(r);
              lane.(r) <- k)
            roots;
          for i = 0 to n - 1 do
            if closed b i && closed b root.(i) then begin
              if not !first then output_char oc ',';
              first := false;
              incr written;
              Printf.fprintf oc
                "\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%d,\"domain\":%d}}"
                names.(name_of b i)
                ((d * 1000) + lane.(root.(i)))
                (float_of_int (b.t0.(i) - origin) /. 1e3)
                (float_of_int (dur b i) /. 1e3)
                b.req.(i) d
            end
          done)
        bufs;
      output_string oc "\n]}\n";
      !written)
