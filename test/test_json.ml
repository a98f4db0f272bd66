(* The shared JSON module: what the bench record writer emits, the
   validators must read back unchanged. *)

let json =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Json.to_string v))
    ( = )

let awkward =
  [
    "plain";
    "";
    "say \"hi\"";
    "back\\slash";
    "C:\\path\\\"quoted\\\"";
    "line\nbreak\ttab\rcr";
    "\001\002\031 controls";
    "literal \\u0041 text";
    "caf\xc3\xa9 utf-8 bytes";
  ]

let test_string_round_trip () =
  List.iter
    (fun s ->
      Alcotest.(check json) (String.escaped s) (Json.Str s)
        (Json.parse (Json.to_string (Json.Str s))))
    awkward

let test_document_round_trip () =
  let doc =
    Json.Obj
      [
        ("generated_by", Json.Str "bench/main.exe");
        ( "records",
          Json.Arr
            (List.map
               (fun s ->
                 Json.Obj
                   [ ("impl", Json.Str s); ("slack", Json.Num 10.0);
                     ("ns", Json.Num 0.125); ("ok", Json.Bool true);
                     ("none", Json.Null) ])
               awkward) );
        ("empty", Json.Arr []);
        ("nested", Json.Obj [ ("deep", Json.Arr [ Json.Obj [] ]) ]);
      ]
  in
  Alcotest.(check json) "parse (to_string doc) = doc" doc
    (Json.parse (Json.to_string doc))

let test_unicode_escapes () =
  Alcotest.(check json) "ASCII \\u decodes" (Json.Str "A\n\031")
    (Json.parse {|"\u0041\u000a\u001F"|});
  Alcotest.(check json) "non-ASCII \\u reads as '?'" (Json.Str "caf?")
    (Json.parse {|"caf\u00e9"|});
  Alcotest.(check string) "control characters written as \\u"
    {|"\u0001\u001f"|} (Json.to_string (Json.Str "\001\031"))

let test_numbers () =
  let num x = Json.to_string (Json.Num x) in
  Alcotest.(check string) "nan" "null" (num Float.nan);
  Alcotest.(check string) "infinity" "null" (num Float.infinity);
  Alcotest.(check string) "-infinity" "null" (num Float.neg_infinity);
  Alcotest.(check string) "non-finite inside a record" {|{"x":null}|}
    (Json.to_string (Json.Obj [ ("x", Json.Num Float.nan) ]));
  Alcotest.(check string) "integral values exact" "1234567" (num 1234567.0);
  Alcotest.(check string) "fractions at 6 significant digits" "0.333333"
    (num (1.0 /. 3.0));
  Alcotest.(check json) "exponent form parses" (Json.Num 2.5e-7)
    (Json.parse (num 2.5e-7))

let bad s =
  match Json.parse s with
  | v -> Alcotest.failf "%S parsed as %s" s (Json.to_string v)
  | exception Json.Bad m -> m

let test_errors () =
  (* The half-written event line of test/fixtures/trace_halfline.json:
     the validate_trace diagnostic embeds exactly this message. *)
  Alcotest.(check string) "half-written event"
    "offset 66: expected ',' or '}'"
    (bad
       {|{"name":"future.fulfilled","cat":"flds","ph":"i","s":"t","ts":20.0|});
  Alcotest.(check string) "empty input" "offset 0: unexpected end of input"
    (bad "");
  Alcotest.(check string) "trailing content"
    "offset 3: trailing content after document" (bad "{} x");
  Alcotest.(check string) "unterminated string" "offset 4: unterminated string"
    (bad {|"abc|});
  Alcotest.(check string) "bad literal" "offset 1: expected true" (bad "[tru]");
  Alcotest.(check string) "unknown escape" "offset 3: unknown escape"
    (bad {|"\q"|})

let () =
  Alcotest.run "json"
    [
      ( "json",
        [
          Alcotest.test_case "string round trip" `Quick test_string_round_trip;
          Alcotest.test_case "document round trip" `Quick
            test_document_round_trip;
          Alcotest.test_case "unicode escapes" `Quick test_unicode_escapes;
          Alcotest.test_case "numbers" `Quick test_numbers;
          Alcotest.test_case "error offsets" `Quick test_errors;
        ] );
    ]
