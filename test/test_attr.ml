module Value = Netembed_attr.Value
module Attrs = Netembed_attr.Attrs

let check = Alcotest.check
let fail_with = Alcotest.check_raises

(* ------------------------------------------------------------------ *)
(* Value                                                               *)
(* ------------------------------------------------------------------ *)

let test_value_equal () =
  check Alcotest.bool "int = int" true (Value.equal (Value.Int 3) (Value.Int 3));
  check Alcotest.bool "int = float cross" true (Value.equal (Value.Int 3) (Value.Float 3.0));
  check Alcotest.bool "float = int cross" true (Value.equal (Value.Float 3.0) (Value.Int 3));
  check Alcotest.bool "int <> float" false (Value.equal (Value.Int 3) (Value.Float 3.5));
  check Alcotest.bool "string" true (Value.equal (Value.String "a") (Value.String "a"));
  check Alcotest.bool "bool <> int" false (Value.equal (Value.Bool true) (Value.Int 1));
  check Alcotest.bool "range" true
    (Value.equal (Value.range 1.0 2.0) (Value.range 1.0 2.0))

let test_value_compare () =
  check Alcotest.bool "3 < 3.5" true (Value.compare (Value.Int 3) (Value.Float 3.5) < 0);
  check Alcotest.bool "3.5 > 3" true (Value.compare (Value.Float 3.5) (Value.Int 3) > 0);
  check Alcotest.int "3 = 3.0" 0 (Value.compare (Value.Int 3) (Value.Float 3.0))

let test_value_coercions () =
  check (Alcotest.float 0.0) "int to float" 4.0 (Value.to_float (Value.Int 4));
  check (Alcotest.float 0.0) "float to float" 2.5 (Value.to_float (Value.Float 2.5));
  check Alcotest.bool "bool" true (Value.to_bool (Value.Bool true));
  fail_with "to_float of string" (Value.Type_error "expected number, got string")
    (fun () -> ignore (Value.to_float (Value.String "x")));
  fail_with "to_bool of int" (Value.Type_error "expected bool, got int") (fun () ->
      ignore (Value.to_bool (Value.Int 1)))

let test_value_range () =
  let r = Value.range 1.5 9.0 in
  check (Alcotest.float 0.0) "lo" 1.5 (Value.range_lo r);
  check (Alcotest.float 0.0) "hi" 9.0 (Value.range_hi r);
  (* Degenerate ranges from plain numbers. *)
  check (Alcotest.float 0.0) "scalar lo" 4.0 (Value.range_lo (Value.Int 4));
  check (Alcotest.float 0.0) "scalar hi" 4.0 (Value.range_hi (Value.Float 4.0));
  Alcotest.check_raises "inverted" (Invalid_argument "Value.range: lo > hi") (fun () ->
      ignore (Value.range 2.0 1.0));
  Alcotest.check_raises "nan" (Invalid_argument "Value.range: NaN bound") (fun () ->
      ignore (Value.range Float.nan 1.0))

let test_value_parse () =
  check Alcotest.bool "bool true" true
    (Value.equal (Value.of_string_as `Bool "true") (Value.Bool true));
  check Alcotest.bool "bool 0" true
    (Value.equal (Value.of_string_as `Bool "0") (Value.Bool false));
  check Alcotest.bool "int" true (Value.equal (Value.of_string_as `Int " 42 ") (Value.Int 42));
  check Alcotest.bool "float" true
    (Value.equal (Value.of_string_as `Float "2.5") (Value.Float 2.5));
  check Alcotest.bool "string" true
    (Value.equal (Value.of_string_as `String "x y") (Value.String "x y"));
  (match Value.of_string_as `Int "nope" with
  | exception Value.Type_error _ -> ()
  | _ -> Alcotest.fail "expected Type_error");
  (* An int payload is an optional sign and decimal digits. *)
  let table =
    [ " 42 ", Some 42;
      "-7", Some (-7);
      "+7", Some 7;
      "007", Some 7;
      "0x1F", None;
      "1_000", None;
      "0o17", None;
      "0b101", None;
      "-", None;
      "", None;
      "4.0", None;
      "99999999999999999999", None;
    ] [@ocamlformat "disable"]
  in
  List.iter
    (fun (payload, expected) ->
      let got =
        match Value.of_string_as `Int payload with
        | Value.Int i -> Some i
        | _ -> Alcotest.failf "%S: not an Int" payload
        | exception Value.Type_error _ -> None
      in
      check Alcotest.(option int) payload expected got)
    table;
  (* A float payload is decimal, or nan/inf as %.17g writes them. *)
  let table =
    [ "2.5",        Some 2.5;
      " 1e-3 ",     Some 1e-3;
      "-2.5E+10",   Some (-2.5e10);
      ".5",         Some 0.5;
      "1.",         Some 1.0;
      "42",         Some 42.0;
      "+7e2",       Some 700.0;
      "-0",         Some (-0.0);
      "nan",        Some Float.nan;
      "-nan",       Some Float.nan;
      "inf",        Some Float.infinity;
      "-inf",       Some Float.neg_infinity;
      "1_000.5",    None;
      "0x1p3",      None;
      "_1",         None;
      ".",          None;
      "e5",         None;
      "1e",         None;
      "1e+",        None;
      "1.5.2",      None;
      "NaN",        None;
      "infinity",   None;
      "",           None;
    ] [@ocamlformat "disable"]
  in
  List.iter
    (fun (payload, expected) ->
      let got =
        match Value.of_string_as `Float payload with
        | Value.Float f -> Some f
        | _ -> Alcotest.failf "%S: not a Float" payload
        | exception Value.Type_error _ -> None
      in
      (* bit for bit, so -0 and nan are told apart from 0 and each other *)
      check
        Alcotest.(option (testable (fun ppf f -> Format.fprintf ppf "%h" f) (fun a b ->
            Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
            || (Float.is_nan a && Float.is_nan b))))
        payload expected got)
    table

(* Every float the GraphML writer emits reads back as the same bits
   (any NaN as a NaN). *)
let test_graphml_float_round_trip () =
  let module Graph = Netembed_graph.Graph in
  let module Graphml = Netembed_graphml.Graphml in
  let values = [ Float.nan; Float.infinity; Float.neg_infinity; -0.0; 5e-324; Float.max_float ] in
  let g = Graph.create () in
  List.iter
    (fun f -> ignore (Graph.add_node g (Attrs.of_list [ ("x", Value.Float f) ])))
    values;
  let path = Filename.temp_file "float_round_trip" ".graphml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Graphml.write_file g path;
      let g' = Graphml.read_file path in
      List.iteri
        (fun v f ->
          match Attrs.find "x" (Graph.node_attrs g' v) with
          | Some (Value.Float f') ->
              if
                not
                  (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float f')
                  || (Float.is_nan f && Float.is_nan f'))
              then Alcotest.failf "%h read back as %h" f f'
          | _ -> Alcotest.failf "%h: no float read back" f)
        values)

(* Floats are read in place, not by [float_of_string], whenever an
   error bound proves the rounding; the value must be the same bits.
   The payloads: what [%.17g] and shorter formats write of random
   doubles, random digit strings with a point and an exponent, and
   integers that lie exactly halfway between two doubles. *)
let gen_float_payload =
  let open QCheck.Gen in
  let any_double =
    oneof [ map Int64.float_of_bits ui64; float_range (-1e4) 1e4; float_range (-1.0) 1.0 ]
  in
  let printed =
    map2 (fun p f -> Printf.sprintf "%.*g" p f) (oneofl [ 17; 16; 15; 12; 3 ]) any_double
  in
  let digits n = string_size ~gen:(char_range '0' '9') (int_range 1 n) in
  let decimal =
    map3
      (fun (whole, frac) sign exp -> Printf.sprintf "%s%s.%se%d" sign whole frac exp)
      (pair (digits 12) (digits 12))
      (oneofl [ ""; "-"; "+" ])
      (int_range (-30) 30)
  in
  let halfway =
    map (fun k -> string_of_int ((2 * ((1 lsl 53) + k)) + 1)) (int_range 0 (1 lsl 30))
  in
  oneof [ printed; decimal; halfway ]

let prop_float_payloads =
  QCheck.Test.make ~name:"float payloads read as float_of_string does" ~count:20_000
    (QCheck.make ~print:Fun.id gen_float_payload)
    (fun payload ->
      let expected = float_of_string payload in
      match Value.of_string_as `Float payload with
      | Value.Float f ->
          Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float expected)
          || (Float.is_nan f && Float.is_nan expected)
      | _ -> false)

(* [of_substring_as] is [of_string_as] of the substring: the same value
   or the same error message. *)
let prop_substring_payloads =
  let outcome f = match f () with v -> Ok v | exception Value.Type_error m -> Error m in
  QCheck.Test.make ~name:"of_substring_as = of_string_as of the slice" ~count:2000
    QCheck.(
      triple
        (oneofl [ `Bool; `Int; `Float; `String ])
        (string_gen_of_size (Gen.int_range 0 24)
           (Gen.oneofl [ '0'; '1'; '7'; '.'; '-'; '+'; 'e'; ' '; 'x'; 'T'; 'r'; 'u'; 'E' ]))
        (pair small_nat small_nat))
    (fun (ty, s, (a, b)) ->
      let n = String.length s in
      let pos = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - pos = 0 then 0 else b mod (n - pos + 1) in
      compare
        (outcome (fun () -> Value.of_substring_as ty s pos len))
        (outcome (fun () -> Value.of_string_as ty (String.sub s pos len)))
      = 0)

let test_value_pp () =
  check Alcotest.string "int" "7" (Value.to_string (Value.Int 7));
  check Alcotest.string "float" "2.5" (Value.to_string (Value.Float 2.5));
  check Alcotest.string "range" "[1,2]" (Value.to_string (Value.range 1.0 2.0))

(* ------------------------------------------------------------------ *)
(* Attrs                                                               *)
(* ------------------------------------------------------------------ *)

let test_attrs_basic () =
  let a = Attrs.empty |> Attrs.add "x" (Value.Int 1) |> Attrs.add "y" (Value.Float 2.0) in
  check Alcotest.int "cardinal" 2 (Attrs.cardinal a);
  check Alcotest.bool "mem" true (Attrs.mem "x" a);
  check (Alcotest.option (Alcotest.float 0.0)) "float widens int" (Some 1.0) (Attrs.float "x" a);
  check (Alcotest.option (Alcotest.float 0.0)) "float" (Some 2.0) (Attrs.float "y" a);
  check (Alcotest.option Alcotest.string) "string miss" None (Attrs.string "x" a);
  let a = Attrs.remove "x" a in
  check Alcotest.bool "removed" false (Attrs.mem "x" a);
  check Alcotest.bool "find_exn raises" true
    (match Attrs.find_exn "x" a with exception Not_found -> true | _ -> false)

let test_attrs_union () =
  let a = Attrs.of_list [ ("x", Value.Int 1); ("y", Value.Int 2) ] in
  let b = Attrs.of_list [ ("y", Value.Int 9); ("z", Value.Int 3) ] in
  let u = Attrs.union a b in
  check (Alcotest.option (Alcotest.float 0.0)) "b wins" (Some 9.0) (Attrs.float "y" u);
  check Alcotest.int "all keys" 3 (Attrs.cardinal u)

let test_attrs_roundtrip =
  QCheck.Test.make ~name:"attrs of_list/to_list roundtrip" ~count:200
    QCheck.(small_list (pair (string_of_size (Gen.int_range 1 8)) small_int))
    (fun kvs ->
      let kvs = List.map (fun (k, v) -> (k, Value.Int v)) kvs in
      let attrs = Netembed_attr.Attrs.of_list kvs in
      (* Last binding per key wins; to_list is sorted and deduped. *)
      let expected =
        List.fold_left
          (fun acc (k, v) -> (k, v) :: List.remove_assoc k acc)
          [] kvs
        |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)
      in
      List.length (Netembed_attr.Attrs.to_list attrs) = List.length expected
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> k1 = k2 && Netembed_attr.Value.equal v1 v2)
           (Netembed_attr.Attrs.to_list attrs)
           expected)

let () =
  Alcotest.run "attr"
    [
      ( "value",
        [
          Alcotest.test_case "equal" `Quick test_value_equal;
          Alcotest.test_case "compare" `Quick test_value_compare;
          Alcotest.test_case "coercions" `Quick test_value_coercions;
          Alcotest.test_case "range" `Quick test_value_range;
          Alcotest.test_case "parse" `Quick test_value_parse;
          Alcotest.test_case "graphml float round trip" `Quick test_graphml_float_round_trip;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 32 |]) prop_float_payloads;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 32 |]) prop_substring_payloads;
          Alcotest.test_case "pp" `Quick test_value_pp;
        ] );
      ( "attrs",
        [
          Alcotest.test_case "basic" `Quick test_attrs_basic;
          Alcotest.test_case "union" `Quick test_attrs_union;
          QCheck_alcotest.to_alcotest test_attrs_roundtrip;
        ] );
    ]
