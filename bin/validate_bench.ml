(* validate_bench — schema check for the flat benchmark JSON that
   bench/main.exe --json writes (CI's bench smoke jobs run this on fresh
   output; the committed results/BENCH_*.json files must pass it too).
   Verifies:

     - the file is non-empty, well-formed JSON with string
       [generated_by] and [git_rev] fields and a [records] array
       ([--min-records N] raises the floor);
     - every record is an object carrying bench (non-empty string),
       impl (non-empty string), integer slack and domains, and only
       finite numbers elsewhere (the writer emits null for a non-finite
       measurement — a null that reaches a committed file is a bug in
       the bench, not the validator);
     - [--bench NAME] (repeatable): at least one record of that bench
       kind appears;
     - service records get their semantic checks: books must balance (completed +
       failed <= admitted, admitted + shed <= offered, shed_rate
       reproduces shed / offered), [--service-p999-budget NS] bounds
       every sweep record's sojourn_p999_ns (the admitted-op tail must
       stay under budget even past the knee), and [--service-knee RATE]
       requires records offered at or below RATE req/s to shed nothing
       (the open-loop knee: below saturation, admission control must be
       invisible).

   Exits 0 with a summary on success, 1 with a diagnostic on the first
   violation. Parsing goes through the repo's own [Json] module: the
   repo deliberately has no JSON dependency. *)

open Json

let () =
  let file = ref None in
  let min_records = ref 1 in
  let service_p999_budget = ref None in
  let service_knee = ref None in
  let benches = ref [] in
  let usage () =
    prerr_endline
      "usage: validate_bench FILE [--min-records N] [--bench NAME]... \
       [--service-p999-budget NS] [--service-knee RATE]";
    exit 2
  in
  let positive r v =
    match float_of_string_opt v with
    | Some x when x > 0.0 -> r := Some x
    | _ -> usage ()
  in
  let rec parse_args = function
    | [] -> ()
    | "--min-records" :: v :: rest ->
        (match int_of_string_opt v with
        | Some m when m >= 1 -> min_records := m
        | _ -> usage ());
        parse_args rest
    | "--service-p999-budget" :: v :: rest ->
        positive service_p999_budget v;
        parse_args rest
    | "--service-knee" :: v :: rest ->
        positive service_knee v;
        parse_args rest
    | "--bench" :: b :: rest ->
        benches := b :: !benches;
        parse_args rest
    | a :: rest when !file = None && String.length a > 0 && a.[0] <> '-' ->
        file := Some a;
        parse_args rest
    | _ -> usage ()
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let file = match !file with Some f -> f | None -> usage () in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "validate_bench: %s: %s\n" file msg;
        exit 1)
      fmt
  in
  let text =
    match In_channel.with_open_bin file In_channel.input_all with
    | "" -> fail "empty file"
    | s -> s
    | exception Sys_error e -> fail "%s" e
  in
  let doc = try parse text with Bad m -> fail "bad JSON: %s" m in
  let top = match doc with Obj kv -> kv | _ -> fail "top level not an object" in
  let str_field k =
    match List.assoc_opt k top with
    | Some (Str s) when s <> "" -> s
    | _ -> fail "missing or empty %S" k
  in
  let (_ : string) = str_field "generated_by" in
  let (_ : string) = str_field "git_rev" in
  let records =
    match List.assoc_opt "records" top with
    | Some (Arr rs) -> rs
    | _ -> fail "missing records array"
  in
  if List.length records < !min_records then
    fail "%d record(s), need at least %d" (List.length records) !min_records;
  let get r k = match r with Obj kv -> List.assoc_opt k kv | _ -> None in
  let num r k =
    match get r k with
    | Some (Num x) when Float.is_finite x -> x
    | _ -> fail "record %s: missing or non-finite %S" (match get r "impl" with Some (Str s) -> s | _ -> "?") k
  in
  let seen_bench = Hashtbl.create 8 in
  List.iteri
    (fun i r ->
      (match r with Obj _ -> () | _ -> fail "record %d not an object" i);
      let bench =
        match get r "bench" with
        | Some (Str s) when s <> "" -> s
        | _ -> fail "record %d: missing bench" i
      in
      Hashtbl.replace seen_bench bench ();
      let impl =
        match get r "impl" with
        | Some (Str s) when s <> "" -> s
        | _ -> fail "record %d: missing impl" i
      in
      let int_field k =
        let x = num r k in
        if Float.of_int (Float.to_int x) <> x then
          fail "record %s: %S not an integer" impl k
      in
      int_field "slack";
      int_field "domains";
      (* Every remaining field must be a finite number: the writer emits
         null for non-finite measurements, and none may be committed. *)
      (match r with
      | Obj kv ->
          List.iter
            (fun (k, v) ->
              match v with
              | Str _ when k = "bench" || k = "impl" -> ()
              | Num x when Float.is_finite x -> ()
              | _ -> fail "record %s: field %S not a finite number" impl k)
            kv
      | _ -> ());
      if bench = "service" then begin
        let offered = num r "offered"
        and admitted = num r "admitted"
        and shed = num r "shed"
        and completed = num r "completed"
        and failed = num r "failed"
        and shed_rate = num r "shed_rate" in
        if completed +. failed > admitted then
          fail "service %s: completed + failed exceeds admitted" impl;
        if admitted +. shed > offered then
          fail "service %s: admitted + shed exceeds offered" impl;
        let expect_rate = if offered = 0.0 then 0.0 else shed /. offered in
        if Float.abs (shed_rate -. expect_rate) > 1e-3 then
          fail "service %s: shed_rate %.4f does not match shed/offered %.4f"
            impl shed_rate expect_rate;
        let p50 = num r "sojourn_p50_ns"
        and p99 = num r "sojourn_p99_ns"
        and p999 = num r "sojourn_p999_ns" in
        if not (p50 <= p99 && p99 <= p999) then
          fail "service %s: sojourn percentiles not monotone" impl;
        (match !service_p999_budget with
        | Some budget when p999 > budget ->
            fail "service %s: sojourn_p999_ns %.0f exceeds budget %.0f" impl
              p999 budget
        | _ -> ());
        match !service_knee with
        | Some knee when num r "offered_rate_per_s" <= knee && shed > 0.0 ->
            fail "service %s: %d shed(s) below the knee (%.0f req/s)" impl
              (int_of_float shed) knee
        | _ -> ()
      end)
    records;
  List.iter
    (fun b ->
      if not (Hashtbl.mem seen_bench b) then
        fail "no record of bench kind %S" b)
    !benches;
  Printf.printf "validate_bench: %s OK (%d records)\n" file
    (List.length records)
