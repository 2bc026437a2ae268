module Xml = Netembed_xml.Xml
module Tree = Netembed_oracle.Xml_tree

let check = Alcotest.check

let test_basic_parse () =
  let doc = Tree.parse_string "<a x=\"1\"><b>text</b><c/></a>" in
  check Alcotest.string "tag" "a" (Tree.tag doc);
  check (Alcotest.option Alcotest.string) "attr" (Some "1") (Tree.attr "x" doc);
  check Alcotest.int "children" 2 (List.length (Tree.child_elements doc));
  match Tree.first_child "b" doc with
  | Some b -> check Alcotest.string "text" "text" (Tree.text_content b)
  | None -> Alcotest.fail "missing <b>"

let test_entities () =
  let doc = Tree.parse_string "<a x='&lt;&amp;&gt;'>&quot;q&apos; &#65;&#x42;</a>" in
  check (Alcotest.option Alcotest.string) "attr entities" (Some "<&>") (Tree.attr "x" doc);
  check Alcotest.string "text entities" "\"q' AB" (Tree.text_content doc)

let test_single_quotes () =
  let doc = Tree.parse_string "<a x='v'/>" in
  check (Alcotest.option Alcotest.string) "single-quoted" (Some "v") (Tree.attr "x" doc)

let test_prolog_comment_doctype () =
  let doc =
    Tree.parse_string
      "<?xml version=\"1.0\"?><!-- preamble --><!DOCTYPE a SYSTEM \"x\"><a><!-- in --><b/></a>"
  in
  check Alcotest.string "root" "a" (Tree.tag doc);
  check Alcotest.int "comment skipped" 1 (List.length (Tree.child_elements doc))

let test_cdata () =
  let doc = Tree.parse_string "<a><![CDATA[<not parsed> && stuff]]></a>" in
  check Alcotest.string "cdata" "<not parsed> && stuff" (Tree.text_content doc)

let test_nested () =
  let doc = Tree.parse_string "<a><b><c><d>deep</d></c></b></a>" in
  check Alcotest.string "deep text" "deep" (Tree.text_content doc)

let expect_parse_error s name =
  match Tree.parse_string s with
  | exception Xml.Parse_error _ -> ()
  | _ -> Alcotest.failf "%s: expected Parse_error" name

let test_errors () =
  expect_parse_error "<a><b></a></b>" "mismatched tags";
  expect_parse_error "<a" "truncated tag";
  expect_parse_error "<a x=1/>" "unquoted attr";
  expect_parse_error "<a>&bogus;</a>" "unknown entity";
  expect_parse_error "" "empty document";
  expect_parse_error "<!DOCTYPE a [<!ENTITY x \"y\">]><a/>" "internal subset"

let test_print_roundtrip () =
  let original =
    Xml.Element
      ( "graph",
        [ ("id", "G"); ("note", "a<b & \"c\"") ],
        [
          Xml.Element ("node", [ ("id", "n0") ], [ Xml.Text "label & <stuff>" ]);
          Xml.Element ("node", [ ("id", "n1") ], []);
        ] )
  in
  let reparsed = Tree.parse_string (Xml.to_string original) in
  check (Alcotest.option Alcotest.string) "attr escaped" (Some "a<b & \"c\"")
    (Tree.attr "note" reparsed);
  match Tree.find_children "node" reparsed with
  | [ n0; n1 ] ->
      check Alcotest.string "text escaped" "label & <stuff>" (Tree.text_content n0);
      check (Alcotest.option Alcotest.string) "second node" (Some "n1") (Tree.attr "id" n1)
  | _ -> Alcotest.fail "wrong child count"

let test_file_io () =
  let path = Filename.temp_file "netembed" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let doc = Xml.Element ("root", [], [ Xml.Element ("x", [ ("k", "v") ], []) ]) in
      Tree.write_file path doc;
      let r = Tree.parse_file path in
      check Alcotest.string "root" "root" (Tree.tag r);
      match Tree.first_child "x" r with
      | Some x -> check (Alcotest.option Alcotest.string) "attr" (Some "v") (Tree.attr "k" x)
      | None -> Alcotest.fail "missing child")

let test_escape () =
  check Alcotest.string "escape" "&lt;a&gt; &amp; &quot;b&quot; &apos;c&apos;"
    (Xml.escape "<a> & \"b\" 'c'")

let test_error_line () =
  (* The reported line number should point at the failing construct. *)
  match Tree.parse_string "<a>\n<b>\n</c>\n</a>" with
  | exception Xml.Parse_error { line; _ } ->
      check Alcotest.int "line" 3 line
  | _ -> Alcotest.fail "expected Parse_error"

let prop_text_roundtrip =
  QCheck.Test.make ~name:"escaped text roundtrips" ~count:300
    QCheck.(string_of_size (QCheck.Gen.int_range 0 60))
    (fun s ->
      (* Restrict to printable ASCII (the parser rejects raw controls is
         not the concern here; whitespace-only text is dropped). *)
      let s =
        String.map
          (fun c -> if Char.code c < 32 || Char.code c > 126 then 'x' else c)
          s
      in
      QCheck.assume (String.trim s <> "");
      let doc = Xml.Element ("t", [ ("a", s) ], [ Xml.Text s ]) in
      let r = Tree.parse_string (Xml.to_string ~indent:false doc) in
      Tree.attr "a" r = Some s && Tree.text_content r = String.trim s)

let prop_no_crash_on_garbage =
  QCheck.Test.make ~name:"parser never crashes: Parse_error or success" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_range 0 80))
    (fun s ->
      match Tree.parse_string s with
      | _ -> true
      | exception Xml.Parse_error _ -> true
      | exception _ -> false)

let () =
  Alcotest.run "xml"
    [
      ( "parse",
        [
          Alcotest.test_case "basic" `Quick test_basic_parse;
          Alcotest.test_case "entities" `Quick test_entities;
          Alcotest.test_case "single quotes" `Quick test_single_quotes;
          Alcotest.test_case "prolog/comment/doctype" `Quick test_prolog_comment_doctype;
          Alcotest.test_case "cdata" `Quick test_cdata;
          Alcotest.test_case "nesting" `Quick test_nested;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "error line" `Quick test_error_line;
        ] );
      ( "print",
        [
          Alcotest.test_case "roundtrip" `Quick test_print_roundtrip;
          Alcotest.test_case "file io" `Quick test_file_io;
          Alcotest.test_case "escape" `Quick test_escape;
          QCheck_alcotest.to_alcotest prop_text_roundtrip;
          QCheck_alcotest.to_alcotest prop_no_crash_on_garbage;
        ] );
    ]
