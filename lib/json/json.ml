type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "offset %d: %s" !pos msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ lit)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' | '\\' | '/' -> Buffer.add_char b e
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' -> (
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub s !pos 4 in
            pos := !pos + 4;
            match int_of_string_opt ("0x" ^ hex) with
            | Some code when code < 128 -> Buffer.add_char b (Char.chr code)
            | Some _ -> Buffer.add_char b '?'
            | None -> fail "malformed \\u escape")
        | _ -> fail "unknown escape");
        go ()
      end
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected a value";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  (* The members of an array or object, after its opening character. *)
  let members close member =
    skip_ws ();
    if peek () = Some close then begin
      advance ();
      []
    end
    else
      let rec go acc =
        let m = member () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            go (m :: acc)
        | Some c when c = close ->
            advance ();
            List.rev (m :: acc)
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      go []
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        Obj
          (members '}' (fun () ->
               skip_ws ();
               let k = parse_string () in
               skip_ws ();
               expect ':';
               (k, parse_value ())))
    | Some '[' ->
        advance ();
        Arr (members ']' parse_value)
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing content after document";
  v

(* ------------------------------ writer ------------------------------ *)

let num x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.6g" x

let quote s =
  let b = Buffer.create (String.length s + 8) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let to_string v =
  let b = Buffer.create 256 in
  let nested = function Arr _ | Obj _ -> true | _ -> false in
  let rec go indent = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num x -> Buffer.add_string b (num x)
    | Str s -> Buffer.add_string b (quote s)
    | Arr vs -> members indent '[' ']' (List.map (fun v -> (None, v)) vs)
    | Obj kvs ->
        members indent '{' '}' (List.map (fun (k, v) -> (Some k, v)) kvs)
  and members indent opening closing ms =
    let multiline = List.exists (fun (_, v) -> nested v) ms in
    let inner = indent ^ "  " in
    Buffer.add_char b opening;
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        if multiline then Buffer.add_string b ("\n" ^ inner);
        Option.iter
          (fun k ->
            Buffer.add_string b (quote k);
            Buffer.add_string b (if multiline then ": " else ":"))
          k;
        go inner v)
      ms;
    if multiline then Buffer.add_string b ("\n" ^ indent);
    Buffer.add_char b closing
  in
  go "" v;
  Buffer.contents b
