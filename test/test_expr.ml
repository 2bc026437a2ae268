module Ast = Netembed_expr.Ast
module Lexer = Netembed_expr.Lexer
module Parser = Netembed_expr.Parser
module Eval = Netembed_expr.Eval
module Expr = Netembed_expr.Expr
module Bounds = Netembed_expr.Bounds
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value

let check = Alcotest.check

let env ?(v_edge = []) ?(r_edge = []) ?(v_source = []) ?(v_target = [])
    ?(r_source = []) ?(r_target = []) () =
  Eval.env ~v_edge:(Attrs.of_list v_edge) ~r_edge:(Attrs.of_list r_edge)
    ~v_source:(Attrs.of_list v_source) ~v_target:(Attrs.of_list v_target)
    ~r_source:(Attrs.of_list r_source) ~r_target:(Attrs.of_list r_target)

let parse = Expr.parse_exn

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let test_lexer_tokens () =
  let toks = List.map fst (Lexer.tokenize "a && b1 || !(x <= 2.5e2) != 'str'") in
  check Alcotest.int "count" 13 (List.length toks);
  check Alcotest.bool "first ident" true (List.nth toks 0 = Lexer.IDENT "a");
  check Alcotest.bool "and" true (List.nth toks 1 = Lexer.AND);
  check Alcotest.bool "number" true (List.exists (fun t -> t = Lexer.NUMBER 250.0) toks);
  check Alcotest.bool "string" true (List.exists (fun t -> t = Lexer.STRING "str") toks);
  check Alcotest.bool "eof last" true (List.nth toks 12 = Lexer.EOF)

let test_lexer_errors () =
  (match Lexer.tokenize "a # b" with
  | exception Lexer.Lex_error _ -> ()
  | _ -> Alcotest.fail "expected Lex_error on #");
  match Lexer.tokenize "'unterminated" with
  | exception Lexer.Lex_error _ -> ()
  | _ -> Alcotest.fail "expected Lex_error on unterminated string"

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_precedence () =
  (* * binds over +, relational over &&, && over ||. *)
  let e = parse "1 + 2 * 3 < 8 && true || false" in
  check Alcotest.bool "structure" true
    (Ast.equal e
       (Ast.Binop
          ( Ast.Or,
            Ast.Binop
              ( Ast.And,
                Ast.Binop
                  ( Ast.Lt,
                    Ast.Binop
                      (Ast.Add, Ast.Num 1.0, Ast.Binop (Ast.Mul, Ast.Num 2.0, Ast.Num 3.0)),
                    Ast.Num 8.0 ),
                Ast.Bool true ),
            Ast.Bool false )))

let test_left_assoc () =
  let e = parse "10 - 4 - 3" in
  check Alcotest.bool "left assoc" true
    (Ast.equal e
       (Ast.Binop (Ast.Sub, Ast.Binop (Ast.Sub, Ast.Num 10.0, Ast.Num 4.0), Ast.Num 3.0)))

let test_attr_access () =
  check Alcotest.bool "vEdge.avgDelay" true
    (Ast.equal (parse "vEdge.avgDelay") (Ast.Attr (Ast.V_edge, "avgDelay")));
  check Alcotest.bool "rTarget.osType" true
    (Ast.equal (parse "rTarget.osType") (Ast.Attr (Ast.R_target, "osType")))

let test_call_parse () =
  check Alcotest.bool "two args" true
    (Ast.equal
       (parse "isBoundTo(vSource.osType, rSource.osType)")
       (Ast.Call
          ( "isBoundTo",
            [ Ast.Attr (Ast.V_source, "osType"); Ast.Attr (Ast.R_source, "osType") ] )))

let test_parse_errors () =
  List.iter
    (fun src ->
      match Expr.parse src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse failure for %S" src)
    [ "vEdge."; "bogusObj.x < 1"; "1 +"; "(1 < 2"; "1 2"; "justAnIdent"; "" ]

(* Table-driven position checks, one row per malformed input: the
   reported line/column and offending token must pinpoint the problem
   (minicaml-style expectation tables). *)
let test_error_positions () =
  let lex_cases =
    (* src, expected (line, column) *)
    [
      ("a # b", (1, 3));
      ("1 < 2 &&\n  'unterminated", (2, 3));
      ("\n\n  ?", (3, 3));
    ]
  in
  List.iter
    (fun (src, (line, col)) ->
      match Lexer.tokenize src with
      | exception Lexer.Lex_error { pos; _ } ->
          check Alcotest.(pair int int)
            (Printf.sprintf "lex position of %S" src)
            (line, col)
            (pos.Lexer.line, pos.Lexer.column)
      | _ -> Alcotest.failf "expected Lex_error for %S" src)
    lex_cases;
  let parse_cases =
    (* src, expected (line, column), substring of the offending token *)
    [
      ("vEdge.", (1, 7), "end of input");
      ("1 +", (1, 4), "end of input");
      ("(1 < 2", (1, 7), "end of input");
      ("1 2", (1, 3), "number 2");
      ("justAnIdent", (1, 1), "justAnIdent");
      ("bogusObj.x < 1", (1, 1), "bogusObj");
      ("rEdge.minDelay >\n  vEdge.maxDelay )", (2, 18), ")");
      ("rEdge.a <\n\nmin(1,", (3, 7), "end of input");
    ]
  in
  List.iter
    (fun (src, (line, col), token_part) ->
      match Parser.parse src with
      | exception Parser.Parse_error { pos; token; _ } ->
          check Alcotest.(pair int int)
            (Printf.sprintf "parse position of %S" src)
            (line, col)
            (pos.Lexer.line, pos.Lexer.column);
          let contains hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
            go 0
          in
          if not (contains token token_part) then
            Alcotest.failf "offending token for %S: wanted %S in %S" src token_part token
      | _ -> Alcotest.failf "expected Parse_error for %S" src)
    parse_cases

let test_roundtrip_paper_fragments () =
  (* The exact fragments from section VI-B must parse and round-trip. *)
  List.iter
    (fun src ->
      let e = parse src in
      let e' = parse (Ast.to_string e) in
      if not (Ast.equal e e') then Alcotest.failf "round trip failed for %S" src)
    [
      "vEdge.avgDelay>=0.90*rEdge.avgDelay && vEdge.avgDelay<=1.10*rEdge.avgDelay";
      "vEdge.avgDelay>=rEdge.minDelay && vEdge.avgDelay<=rEdge.maxDelay";
      "isBoundTo(vSource.osType, rSource.osType)";
      "isBoundTo(vSource.bindTo, rSource.name)";
      "sqrt( (vSource.x-vTarget.x)*(vSource.x-vTarget.x) + \
       (vSource.y-vTarget.y)*(vSource.y-vTarget.y) ) < 100.0";
    ]

(* ------------------------------------------------------------------ *)
(* Evaluator                                                           *)
(* ------------------------------------------------------------------ *)

let accepts ?v_edge ?r_edge ?v_source ?v_target ?r_source ?r_target src =
  Eval.accepts (env ?v_edge ?r_edge ?v_source ?v_target ?r_source ?r_target ()) (parse src)

let test_eval_arith () =
  check Alcotest.bool "arith" true (accepts "1 + 2 * 3 == 7");
  check Alcotest.bool "div" true (accepts "10 / 4 == 2.5");
  check Alcotest.bool "neg" true (accepts "-3 + 5 == 2");
  check Alcotest.bool "abs" true (accepts "abs(0 - 4) == 4");
  check Alcotest.bool "sqrt" true (accepts "sqrt(9) == 3");
  check Alcotest.bool "min/max" true (accepts "min(2, 5) == 2 && max(2, 5) == 5");
  check Alcotest.bool "floor/ceil" true (accepts "floor(2.7) == 2 && ceil(2.1) == 3")

let test_eval_bool () =
  check Alcotest.bool "not" true (accepts "!(1 > 2)");
  check Alcotest.bool "and short-circuit" false (accepts "false && 1 / 0 == 1");
  check Alcotest.bool "or short-circuit" true (accepts "true || 1 / 0 == 1")

let test_eval_strings () =
  check Alcotest.bool "eq" true (accepts "'abc' == 'abc'");
  check Alcotest.bool "neq" true (accepts "'abc' != 'abd'");
  check Alcotest.bool "order" true (accepts "'abc' < 'abd'")

let test_eval_attrs () =
  check Alcotest.bool "attr read" true
    (accepts ~v_edge:[ ("avgDelay", Value.Float 50.0) ]
       ~r_edge:[ ("avgDelay", Value.Float 52.0) ]
       "vEdge.avgDelay >= 0.90 * rEdge.avgDelay && vEdge.avgDelay <= 1.10 * rEdge.avgDelay");
  check Alcotest.bool "int attr mixes with float" true
    (accepts ~r_source:[ ("cpuMhz", Value.Int 2000) ] "rSource.cpuMhz / 2 == 1000")

let test_missing_attr_is_false () =
  check Alcotest.bool "missing rejects" false (accepts "rEdge.nonexistent < 5");
  (* ... but short-circuiting can avoid touching it. *)
  check Alcotest.bool "short-circuit avoids missing" true
    (accepts "true || rEdge.nonexistent < 5")

let test_is_bound_to () =
  let bound = "isBoundTo(vSource.osType, rSource.osType)" in
  check Alcotest.bool "both present equal" true
    (accepts
       ~v_source:[ ("osType", Value.String "linux") ]
       ~r_source:[ ("osType", Value.String "linux") ]
       bound);
  check Alcotest.bool "both present different" false
    (accepts
       ~v_source:[ ("osType", Value.String "linux") ]
       ~r_source:[ ("osType", Value.String "bsd") ]
       bound);
  (* Query side lacks the attribute: unconstrained. *)
  check Alcotest.bool "query side missing -> true" true
    (accepts ~r_source:[ ("osType", Value.String "bsd") ] bound);
  check Alcotest.bool "query side missing, host missing too" true (accepts bound);
  (* Query side present but host lacks it: no match. *)
  check Alcotest.bool "host side missing -> false" false
    (accepts ~v_source:[ ("osType", Value.String "linux") ] bound)

let test_eval_errors () =
  let expect_error src =
    match Eval.eval (env ()) (parse src) with
    | exception Eval.Eval_error _ -> ()
    | _ -> Alcotest.failf "expected Eval_error for %S" src
  in
  expect_error "1 / 0 == 1";
  expect_error "sqrt(0 - 1) == 1";
  expect_error "'a' + 1 == 2";
  expect_error "!5 == 1";
  expect_error "unknownFun(1) == 1";
  expect_error "abs(1, 2) == 1";
  expect_error "true < false";
  (* Non-boolean top level rejected by accepts. *)
  match Eval.accepts (env ()) (parse "1 + 1") with
  | exception Eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "expected Eval_error for non-bool constraint"

let test_swap_orientation () =
  let e = env ~r_source:[ ("x", Value.Float 1.0) ] ~r_target:[ ("x", Value.Float 2.0) ] () in
  check Alcotest.bool "forward" true (Eval.accepts e (parse "rSource.x < rTarget.x"));
  check Alcotest.bool "swapped" false
    (Eval.accepts (Eval.swap_r_orientation e) (parse "rSource.x < rTarget.x"))

(* ------------------------------------------------------------------ *)
(* Specializer                                                         *)
(* ------------------------------------------------------------------ *)

let test_specialize_agrees () =
  let v_edge = Attrs.of_list [ ("minDelay", Value.Float 10.0); ("maxDelay", Value.Float 20.0) ] in
  let v_source = Attrs.of_list [ ("osType", Value.String "linux") ] in
  let exprs =
    [
      "rEdge.minDelay >= vEdge.minDelay && rEdge.maxDelay <= vEdge.maxDelay";
      "isBoundTo(vSource.osType, rSource.osType)";
      "isBoundTo(vSource.city, rSource.city)";
      "vEdge.minDelay * 2 < rEdge.avgDelay || rEdge.avgDelay < 1";
      "true || vEdge.absent > 1";
      "vEdge.absent > 1 || rEdge.avgDelay > 0";
    ]
  in
  List.iter
    (fun src ->
      let e = parse src in
      let residual = Eval.specialize ~v_edge ~v_source ~v_target:Attrs.empty e in
      (* Against several host-side environments the residual must agree
         with the unspecialized expression. *)
      List.iter
        (fun (r_edge, r_source) ->
          let full =
            Eval.env ~v_edge ~v_source ~v_target:Attrs.empty
              ~r_edge:(Attrs.of_list r_edge) ~r_source:(Attrs.of_list r_source)
              ~r_target:Attrs.empty
          in
          let got = Eval.accepts full residual in
          let want = Eval.accepts full e in
          if got <> want then
            Alcotest.failf "specialize disagrees on %S (want %b, got %b)" src want got)
        [
          ([ ("minDelay", Value.Float 12.0); ("maxDelay", Value.Float 18.0); ("avgDelay", Value.Float 15.0) ],
           [ ("osType", Value.String "linux"); ("city", Value.String "bos") ]);
          ([ ("minDelay", Value.Float 5.0); ("maxDelay", Value.Float 30.0); ("avgDelay", Value.Float 0.5) ],
           [ ("osType", Value.String "bsd") ]);
          ([], []);
        ])
    exprs

let test_specialize_folds () =
  (* Constant subtrees collapse: the residual of a fully-v-side
     constraint is a literal. *)
  let v_edge = Attrs.of_list [ ("minDelay", Value.Float 10.0) ] in
  let residual =
    Eval.specialize ~v_edge ~v_source:Attrs.empty ~v_target:Attrs.empty
      (parse "vEdge.minDelay * 2 == 20")
  in
  check Alcotest.bool "folded to literal" true
    (match residual with Ast.Lit (Value.Bool true) -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Stock constraints                                                   *)
(* ------------------------------------------------------------------ *)

let test_stock_constraints () =
  let e =
    env
      ~v_edge:[ ("minDelay", Value.Float 10.0); ("maxDelay", Value.Float 20.0) ]
      ~r_edge:
        [ ("minDelay", Value.Float 11.0); ("avgDelay", Value.Float 15.0);
          ("maxDelay", Value.Float 19.0) ]
      ()
  in
  check Alcotest.bool "range within" true (Expr.accepts e Expr.delay_range_within);
  check Alcotest.bool "avg within" true (Expr.accepts e Expr.avg_delay_within);
  check Alcotest.bool "always" true (Expr.accepts e Expr.always);
  let tol =
    env
      ~v_edge:[ ("avgDelay", Value.Float 100.0) ]
      ~r_edge:[ ("avgDelay", Value.Float 105.0) ]
      ()
  in
  check Alcotest.bool "10%% tolerance ok" true (Expr.accepts tol (Expr.delay_tolerance 0.10));
  check Alcotest.bool "3%% tolerance fails" false (Expr.accepts tol (Expr.delay_tolerance 0.03))

(* ------------------------------------------------------------------ *)
(* Evaluation order                                                    *)
(* ------------------------------------------------------------------ *)

(* [eval.mli] defines the order operands, conversions and checks run
   in; it decides whether an input raises [Eval_error] (a malformed
   query) or [Missing_attr] (the pair cannot be certified, so [accepts]
   rejects it).  Each row is (source, expected [eval] outcome, expected
   [accepts] result), once against an environment carrying most
   attributes and once against an empty one. *)

type outcome = V of Value.t | Error_eval | Missing of Ast.obj * string

let outcome_to_string = function
  | V v -> "value " ^ Value.to_string v
  | Error_eval -> "Eval_error"
  | Missing (o, n) -> Printf.sprintf "Missing_attr %s.%s" (Ast.obj_name o) n

let outcome =
  Alcotest.testable
    (fun fmt o -> Format.pp_print_string fmt (outcome_to_string o))
    (fun a b ->
      match (a, b) with
      | V x, V y -> Value.equal x y
      | Error_eval, Error_eval -> true
      | Missing (o1, n1), Missing (o2, n2) -> o1 = o2 && String.equal n1 n2
      | _ -> false)

type accepted = A of bool | A_error

let accepted =
  Alcotest.testable
    (fun fmt a ->
      Format.pp_print_string fmt
        (match a with A b -> string_of_bool b | A_error -> "Eval_error"))
    ( = )

let rich_env =
  env
    ~v_edge:[ ("bw", Value.Float 10.0); ("delay", Value.Float 4.0); ("os", Value.String "linux") ]
    ~r_edge:
      [
        ("bw", Value.Float 25.0); ("delay", Value.Float 3.0); ("os", Value.String "linux");
        ("hops", Value.Int 2); ("up", Value.Bool true);
      ]
    ~v_source:[ ("osType", Value.String "bsd"); ("cpu", Value.Float 500.0) ]
    ~v_target:[ ("cpu", Value.Float 800.0) ]
    ~r_source:
      [ ("osType", Value.String "bsd"); ("cpu", Value.Float 900.0); ("reserved", Value.Bool false) ]
    ~r_target:[ ("cpu", Value.Float 1200.0) ]
    ()

let rich_env_table =
  let open Value in
  [
    ("rEdge.bw >= vEdge.bw", V (Bool true), A true);
    ("rEdge.delay <= vEdge.delay", V (Bool true), A true);
    ("rEdge.bw - vEdge.bw >= 10 && rEdge.up", V (Bool true), A true);
    ("rEdge.bw * 2 + rEdge.hops / 2 - 1", V (Float 50.0), A_error);
    ( "min(rEdge.bw, vEdge.bw) == 10 && max(rEdge.cpuMissing, 1) == 1 || true",
      Missing (Ast.R_edge, "cpuMissing"), A false );
    ("abs(vEdge.delay - rEdge.delay) <= 1", V (Bool true), A true);
    ("sqrt(rEdge.bw * 4) == 10", V (Bool true), A true);
    ("floor(rEdge.delay / 2) == 1 && ceil(rEdge.delay / 2) == 2", V (Bool true), A true);
    ("-rEdge.delay < 0", V (Bool true), A true);
    ("rEdge.os == 'linux' && vSource.osType != 'solaris'", V (Bool true), A true);
    ("rEdge.os < 'windows'", V (Bool true), A true);
    ("rEdge.os == 5", V (Bool false), A false);
    ("rEdge.up != 7", V (Bool true), A true);
    ("isBoundTo(vSource.osType, rSource.osType)", V (Bool true), A true);
    ("isBoundTo(vSource.missing, rSource.osType)", V (Bool true), A true);
    ("isBoundTo(vSource.osType, rSource.missing)", V (Bool false), A false);
    ("isBoundTo(vSource.cpu, rSource.cpu)", V (Bool false), A false);
    ("rEdge.hops == 2 && rEdge.hops < 2.5", V (Bool true), A true);
    ("rEdge.missing < 5", Missing (Ast.R_edge, "missing"), A false);
    ("vEdge.bw < 5 || vEdge.absent", Missing (Ast.V_edge, "absent"), A false);
    ("rEdge.bw > 0 || rEdge.missing < 5", V (Bool true), A true);
    ("rEdge.bw < 0 && rEdge.missing < 5", V (Bool false), A false);
    ("1 + 1", V (Float 2.0), A_error);
    ("rEdge.bw", V (Float 25.0), A_error);
    ("'a' + 1 == 2", Error_eval, A_error);
    ("!5 == true", Error_eval, A_error);
    ("true < false", Error_eval, A_error);
    ("rEdge.os + 1 > 0", Error_eval, A_error);
    ("!rEdge.bw", Error_eval, A_error);
    ("rEdge.bw / 0 > 1", Error_eval, A_error);
    ("rEdge.missing / 0 > 1", Missing (Ast.R_edge, "missing"), A false);
    ("unknownFun(rEdge.bw) == 1", Error_eval, A_error);
    ("unknownFun(rEdge.missing) == 1", Missing (Ast.R_edge, "missing"), A false);
    ("abs(1, 2) == 1", Error_eval, A_error);
    ("min(3) == 3", Error_eval, A_error);
    ("sqrt(0 - 4) == 2", Error_eval, A_error);
    ("isBoundTo(rEdge.missing)", Error_eval, A_error);
    ("isBoundTo(vSource.osType, rSource.osType, 1)", Error_eval, A_error);
    ("rEdge.bw + 5", V (Float 30.0), A_error);
  ] [@ocamlformat "disable"]

(* Everything missing: the first attribute reached decides, and
   isBoundTo with an absent query side is unconstrained. *)
let empty_env_table =
  let open Value in
  [
    ("rEdge.bw >= vEdge.bw", Missing (Ast.R_edge, "bw"), A false);
    ("rEdge.delay <= vEdge.delay", Missing (Ast.R_edge, "delay"), A false);
    ("rEdge.bw - vEdge.bw >= 10 && rEdge.up", Missing (Ast.R_edge, "bw"), A false);
    ("rEdge.bw * 2 + rEdge.hops / 2 - 1", Missing (Ast.R_edge, "bw"), A false);
    ( "min(rEdge.bw, vEdge.bw) == 10 && max(rEdge.cpuMissing, 1) == 1 || true",
      Missing (Ast.R_edge, "bw"), A false );
    ("abs(vEdge.delay - rEdge.delay) <= 1", Missing (Ast.V_edge, "delay"), A false);
    ("sqrt(rEdge.bw * 4) == 10", Missing (Ast.R_edge, "bw"), A false);
    ( "floor(rEdge.delay / 2) == 1 && ceil(rEdge.delay / 2) == 2",
      Missing (Ast.R_edge, "delay"), A false );
    ("-rEdge.delay < 0", Missing (Ast.R_edge, "delay"), A false);
    ( "rEdge.os == 'linux' && vSource.osType != 'solaris'",
      Missing (Ast.R_edge, "os"), A false );
    ("rEdge.os < 'windows'", Missing (Ast.R_edge, "os"), A false);
    ("rEdge.os == 5", Missing (Ast.R_edge, "os"), A false);
    ("rEdge.up != 7", Missing (Ast.R_edge, "up"), A false);
    ("isBoundTo(vSource.osType, rSource.osType)", V (Bool true), A true);
    ("isBoundTo(vSource.missing, rSource.osType)", V (Bool true), A true);
    ("isBoundTo(vSource.osType, rSource.missing)", V (Bool true), A true);
    ("isBoundTo(vSource.cpu, rSource.cpu)", V (Bool true), A true);
    ("rEdge.hops == 2 && rEdge.hops < 2.5", Missing (Ast.R_edge, "hops"), A false);
    ("rEdge.missing < 5", Missing (Ast.R_edge, "missing"), A false);
    ("vEdge.bw < 5 || vEdge.absent", Missing (Ast.V_edge, "bw"), A false);
    ("rEdge.bw > 0 || rEdge.missing < 5", Missing (Ast.R_edge, "bw"), A false);
    ("rEdge.bw < 0 && rEdge.missing < 5", Missing (Ast.R_edge, "bw"), A false);
    ("1 + 1", V (Float 2.0), A_error);
    ("rEdge.bw", Missing (Ast.R_edge, "bw"), A false);
    ("'a' + 1 == 2", Error_eval, A_error);
    ("!5 == true", Error_eval, A_error);
    ("true < false", Error_eval, A_error);
    ("rEdge.os + 1 > 0", Missing (Ast.R_edge, "os"), A false);
    ("!rEdge.bw", Missing (Ast.R_edge, "bw"), A false);
    ("rEdge.bw / 0 > 1", Missing (Ast.R_edge, "bw"), A false);
    ("rEdge.missing / 0 > 1", Missing (Ast.R_edge, "missing"), A false);
    ("unknownFun(rEdge.bw) == 1", Missing (Ast.R_edge, "bw"), A false);
    ("unknownFun(rEdge.missing) == 1", Missing (Ast.R_edge, "missing"), A false);
    ("abs(1, 2) == 1", Error_eval, A_error);
    ("min(3) == 3", Error_eval, A_error);
    ("sqrt(0 - 4) == 2", Error_eval, A_error);
    ("isBoundTo(rEdge.missing)", Error_eval, A_error);
    ("isBoundTo(vSource.osType, rSource.osType, 1)", Error_eval, A_error);
    ("rEdge.bw + 5", Missing (Ast.R_edge, "bw"), A false);
  ] [@ocamlformat "disable"]

let check_order_table name envv table =
  List.iter
    (fun (src, expected, expected_accepts) ->
      let e = parse src in
      let got =
        match Eval.eval envv e with
        | v -> V v
        | exception Eval.Eval_error _ -> Error_eval
        | exception Eval.Missing_attr (o, n) -> Missing (o, n)
      in
      Alcotest.check outcome (name ^ ": eval " ^ src) expected got;
      let got_accepts =
        match Eval.accepts envv e with b -> A b | exception Eval.Eval_error _ -> A_error
      in
      Alcotest.check accepted (name ^ ": accepts " ^ src) expected_accepts got_accepts)
    table

let test_evaluation_order () =
  check_order_table "rich" rich_env rich_env_table;
  check_order_table "empty" (env ()) empty_env_table

(* ------------------------------------------------------------------ *)
(* Bounds extraction                                                   *)
(* ------------------------------------------------------------------ *)

let vnum f = Value.Float f
let vint i = Value.Int i
let vstr s = Value.String s
let vbool b = Value.Bool b

let atoms_to_string atoms =
  String.concat "; "
    (List.map (fun a -> Format.asprintf "%a" Bounds.pp_atom a) atoms)

let test_bounds_extraction () =
  let b =
    Bounds.of_ast
      (parse
         "rSource.cpuMhz >= 900 && rSource.os == 'linux' && !rSource.reserved \
          && rEdge.avgDelay < 20")
  in
  Alcotest.(check bool) "complete" true b.Bounds.complete;
  Alcotest.(check string) "atoms"
    "rSource.cpuMhz >= 900; rSource.os == 'linux'; !rSource.reserved; \
     rEdge.avgDelay < 20"
    (atoms_to_string b.Bounds.atoms);
  (* flipped operands and the specialized isBoundTo shape *)
  let b = Bounds.of_ast (parse "900 <= rSource.cpuMhz && isBoundTo('linux', rSource.os)") in
  Alcotest.(check bool) "complete (flipped)" true b.Bounds.complete;
  Alcotest.(check string) "atoms (flipped)"
    "rSource.cpuMhz >= 900; rSource.os == 'linux'"
    (atoms_to_string b.Bounds.atoms);
  (* a disjunction yields nothing and clears completeness *)
  let b = Bounds.of_ast (parse "rSource.cpuMhz >= 900 || rSource.x < 1") in
  Alcotest.(check bool) "incomplete (or)" false b.Bounds.complete;
  Alcotest.(check int) "no atoms (or)" 0 (List.length b.Bounds.atoms);
  (* partial recognition: the sound atom is kept, completeness cleared *)
  let b = Bounds.of_ast (parse "rEdge.a > 5 && rEdge.b * 2 < 10") in
  Alcotest.(check bool) "incomplete (arith)" false b.Bounds.complete;
  Alcotest.(check string) "atoms (arith)" "rEdge.a > 5" (atoms_to_string b.Bounds.atoms);
  (* the filter extracts from the specialized residual, whose closed
     subtrees are folded, so folded constants extract *)
  let b =
    Bounds.of_ast
      (Eval.specialize ~v_edge:Attrs.empty ~v_source:Attrs.empty ~v_target:Attrs.empty
         (parse "rEdge.bw >= 2 * 50"))
  in
  Alcotest.(check string) "atoms (folded)" "rEdge.bw >= 100"
    (atoms_to_string b.Bounds.atoms);
  Alcotest.(check bool) "complete (folded)" true b.Bounds.complete

let test_bounds_satisfied () =
  let cmp =
    Bounds.Cmp { subject = Ast.R_edge; attr = "d"; cmp = Bounds.Lt; bound = 20.0 }
  in
  let check msg expected got =
    Alcotest.(check string) msg expected
      (match got with `Pass -> "pass" | `Fail -> "fail" | `Unknown -> "unknown")
  in
  check "cmp pass" "pass" (Bounds.satisfied cmp (vnum 10.0));
  check "cmp int pass" "pass" (Bounds.satisfied cmp (vint 19));
  check "cmp fail" "fail" (Bounds.satisfied cmp (vnum 20.0));
  check "cmp non-numeric" "unknown" (Bounds.satisfied cmp (vstr "x"));
  check "cmp bool" "unknown" (Bounds.satisfied cmp (vbool true));
  let eq = Bounds.Eq { subject = Ast.R_edge; attr = "os"; value = vstr "linux" } in
  check "eq pass" "pass" (Bounds.satisfied eq (vstr "linux"));
  check "eq fail" "fail" (Bounds.satisfied eq (vstr "bsd"));
  (* eval_eq semantics: mixed types are unequal, never unknown *)
  check "eq mixed" "fail" (Bounds.satisfied eq (vnum 1.0));
  (* numeric equality crosses Int/Float *)
  let eqn = Bounds.Eq { subject = Ast.R_edge; attr = "hops"; value = vnum 2.0 } in
  check "eq int/float" "pass" (Bounds.satisfied eqn (vint 2));
  let hb = Bounds.Has_bool { subject = Ast.R_source; attr = "up"; value = true } in
  check "has_bool pass" "pass" (Bounds.satisfied hb (vbool true));
  check "has_bool fail" "fail" (Bounds.satisfied hb (vbool false));
  check "has_bool non-bool" "unknown" (Bounds.satisfied hb (vnum 1.0))

let test_bounds_interval () =
  let b = Bounds.of_ast (parse "rEdge.d >= 5 && rEdge.d < 20 && rEdge.x == 7") in
  let lo, hi = Bounds.interval b Ast.R_edge "d" in
  Alcotest.(check (float 0.0)) "lo" 5.0 lo;
  Alcotest.(check (float 0.0)) "hi" 20.0 hi;
  let lo, hi = Bounds.interval b Ast.R_edge "x" in
  Alcotest.(check (float 0.0)) "eq lo" 7.0 lo;
  Alcotest.(check (float 0.0)) "eq hi" 7.0 hi;
  let lo, hi = Bounds.interval b Ast.R_edge "unconstrained" in
  Alcotest.(check bool) "open interval" true
    (lo = Float.neg_infinity && hi = Float.infinity)

(* Random environments for the soundness property: up to four
   attributes per object, of every value type. *)

let objects =
  [| Ast.V_edge; Ast.R_edge; Ast.V_source; Ast.V_target; Ast.R_source; Ast.R_target |]

let attr_names = [| "a"; "b"; "c"; "d" |]

let gen_value =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> vnum (float_of_int i)) (int_range (-20) 20));
        (2, map (fun i -> vint i) (int_range (-20) 20));
        (2, map vstr (oneofl [ "linux"; "bsd"; "solaris" ]));
        (2, map vbool bool);
      ])

let gen_table =
  QCheck.Gen.(
    let* n = int_range 0 (Array.length attr_names) in
    let* vals = list_size (return n) gen_value in
    return
      (List.fold_left2
         (fun t name v -> Attrs.add name v t)
         Attrs.empty
         (Array.to_list (Array.sub attr_names 0 n))
         vals))

let gen_env =
  QCheck.Gen.(
    let* v_edge = gen_table in
    let* r_edge = gen_table in
    let* v_source = gen_table in
    let* v_target = gen_table in
    let* r_source = gen_table in
    let* r_target = gen_table in
    return (Eval.env ~v_edge ~r_edge ~v_source ~v_target ~r_source ~r_target))

let gen_attr =
  QCheck.Gen.(
    let* o = oneofa objects in
    let* n = oneofa attr_names in
    return (Ast.Attr (o, n)))

(* Mostly well-typed expressions with a deliberate sprinkling of
   ill-typed and erroring shapes, so the error classes are covered too. *)
let rec gen_num_expr depth =
  QCheck.Gen.(
    if depth = 0 then
      frequency
        [
          (3, map (fun i -> Ast.Num (float_of_int i)) (int_range (-9) 9));
          (3, gen_attr);
          (1, return (Ast.Num 0.0));
        ]
    else
      frequency
        [
          (2, gen_num_expr 0);
          ( 3,
            let* op = oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div ] in
            let* a = gen_num_expr (depth - 1) in
            let* b = gen_num_expr (depth - 1) in
            return (Ast.Binop (op, a, b)) );
          ( 1,
            let* a = gen_num_expr (depth - 1) in
            return (Ast.Unop (Ast.Neg, a)) );
          ( 1,
            let* f = oneofl [ "abs"; "sqrt"; "floor"; "ceil" ] in
            let* a = gen_num_expr (depth - 1) in
            return (Ast.Call (f, [ a ])) );
          ( 1,
            let* f = oneofl [ "min"; "max" ] in
            let* a = gen_num_expr (depth - 1) in
            let* b = gen_num_expr (depth - 1) in
            return (Ast.Call (f, [ a; b ])) );
        ])

let rec gen_bool_expr depth =
  QCheck.Gen.(
    if depth = 0 then
      frequency [ (2, map (fun b -> Ast.Bool b) bool); (3, gen_attr) ]
    else
      frequency
        [
          (1, gen_bool_expr 0);
          ( 3,
            let* op = oneofl [ Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ] in
            let* a = gen_num_expr (depth - 1) in
            let* b = gen_num_expr (depth - 1) in
            return (Ast.Binop (op, a, b)) );
          ( 2,
            let* op = oneofl [ Ast.Eq; Ast.Neq ] in
            let* a =
              oneof [ gen_num_expr (depth - 1); gen_attr; map (fun s -> Ast.Str s) (oneofl [ "linux"; "bsd" ]) ]
            in
            let* b =
              oneof [ gen_num_expr (depth - 1); gen_attr; map (fun s -> Ast.Str s) (oneofl [ "linux"; "bsd" ]) ]
            in
            return (Ast.Binop (op, a, b)) );
          ( 2,
            let* op = oneofl [ Ast.And; Ast.Or ] in
            let* a = gen_bool_expr (depth - 1) in
            let* b = gen_bool_expr (depth - 1) in
            return (Ast.Binop (op, a, b)) );
          ( 1,
            let* a = gen_bool_expr (depth - 1) in
            return (Ast.Unop (Ast.Not, a)) );
          ( 1,
            let* a = oneof [ gen_attr; map (fun s -> Ast.Str s) (oneofl [ "linux"; "bsd" ]) ] in
            let* b = gen_attr in
            return (Ast.Call ("isBoundTo", [ a; b ])) );
          (* deliberately ill-formed: wrong arity / unknown function *)
          ( 1,
            oneofl
              [
                Ast.Call ("isBoundTo", [ Ast.Num 1.0 ]);
                Ast.Call ("abs", [ Ast.Num 1.0; Ast.Num 2.0 ]);
                Ast.Call ("frobnicate", [ Ast.Num 1.0 ]);
                Ast.Binop (Ast.Add, Ast.Str "a", Ast.Num 1.0);
              ] );
        ])

let gen_case =
  QCheck.Gen.(
    let* e = gen_bool_expr 3 in
    let* envv = gen_env in
    return (e, envv))

let arb_case =
  QCheck.make gen_case ~print:(fun (e, _) -> Ast.to_string e)


(* Soundness of atoms against the interpreter: a Fail verdict on a
   candidate value implies accepts is false whenever that object carries
   that value. *)
let bounds_sound_prop (e, envv) =
  let b = Bounds.of_ast e in
  let lookup (obj : Ast.obj) name =
    let t =
      match obj with
      | Ast.V_edge -> envv.Eval.v_edge
      | Ast.R_edge -> envv.Eval.r_edge
      | Ast.V_source -> envv.Eval.v_source
      | Ast.V_target -> envv.Eval.v_target
      | Ast.R_source -> envv.Eval.r_source
      | Ast.R_target -> envv.Eval.r_target
    in
    Attrs.find name t
  in
  let verdict =
    List.fold_left
      (fun acc atom ->
        if acc = `Drop then `Drop
        else
          let obj, name = Bounds.atom_subject atom in
          match lookup obj name with
          | None -> `Drop (* absent attribute: always a safe drop *)
          | Some v -> (
              match Bounds.satisfied atom v with
              | `Fail -> `Drop
              | `Pass | `Unknown -> acc))
      `Keep b.Bounds.atoms
  in
  match verdict with
  | `Keep -> true
  | `Drop -> (
      (* dropping is only sound if accepts would have said false (or
         raised a type error that early dropping is allowed to hide) *)
      match Eval.accepts envv e with
      | true -> QCheck.Test.fail_reportf "bounds dropped an accepted candidate"
      | false -> true
      | exception Eval.Eval_error _ -> true)

let qcheck_bounds_sound =
  QCheck.Test.make ~count:2000 ~name:"bounds Fail verdicts are sound" arb_case
    bounds_sound_prop

(* Random-expression property: printing and reparsing preserves meaning. *)

let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun b -> Ast.Bool b) bool;
        map (fun n -> Ast.Num (float_of_int n)) (int_range 0 20);
        return (Ast.Attr (Ast.R_edge, "x"));
        return (Ast.Attr (Ast.V_edge, "y"));
      ]
  in
  let rec expr depth =
    if depth = 0 then leaf
    else
      oneof
        [
          leaf;
          map2 (fun a b -> Ast.Binop (Ast.Add, a, b)) (expr (depth - 1)) (expr (depth - 1));
          map2 (fun a b -> Ast.Binop (Ast.Mul, a, b)) (expr (depth - 1)) (expr (depth - 1));
          map2 (fun a b -> Ast.Binop (Ast.Lt, a, b)) (expr (depth - 1)) (expr (depth - 1));
          map (fun a -> Ast.Unop (Ast.Neg, a)) (expr (depth - 1));
        ]
  in
  expr 4

(* Property: specialization never changes `accepts` semantics, for any
   split of attributes between query and host sides. *)
let gen_env_expr =
  let open QCheck.Gen in
  let names = [| "a"; "b"; "c" |] in
  let gen_obj =
    oneofl [ Ast.V_edge; Ast.V_source; Ast.V_target; Ast.R_edge; Ast.R_source; Ast.R_target ]
  in
  let leaf =
    oneof
      [
        map (fun b -> Ast.Bool b) bool;
        map (fun n -> Ast.Num (float_of_int n)) (int_range 0 9);
        map2 (fun o i -> Ast.Attr (o, names.(i))) gen_obj (int_range 0 2);
      ]
  in
  let rec expr depth =
    if depth = 0 then leaf
    else
      oneof
        [
          leaf;
          map2 (fun a b -> Ast.Binop (Ast.Add, a, b)) (expr (depth - 1)) (expr (depth - 1));
          map2 (fun a b -> Ast.Binop (Ast.Lt, a, b)) (expr (depth - 1)) (expr (depth - 1));
          map2 (fun a b -> Ast.Binop (Ast.And, a, b)) (expr (depth - 1)) (expr (depth - 1));
          map2 (fun a b -> Ast.Binop (Ast.Or, a, b)) (expr (depth - 1)) (expr (depth - 1));
          map2
            (fun a b -> Ast.Call ("isBoundTo", [ a; b ]))
            (expr (depth - 1)) (expr (depth - 1));
        ]
  in
  let gen_table =
    (* Each of a,b,c present with probability 2/3, with small numbers. *)
    map
      (fun vals ->
        List.fold_left
          (fun acc (name, v) ->
            match v with Some x -> Attrs.add name (Value.Float (float_of_int x)) acc | None -> acc)
          Attrs.empty
          (List.combine [ "a"; "b"; "c" ] vals))
      (list_repeat 3 (opt (int_range 0 9)))
  in
  tup4 (expr 3) gen_table gen_table gen_table

let prop_specialize_equivalent =
  QCheck.Test.make ~name:"specialize preserves accepts on random exprs" ~count:500
    (QCheck.make gen_env_expr)
    (fun (e, v_edge, v_source, r_edge) ->
      let env =
        Eval.env ~v_edge ~v_source ~v_target:Attrs.empty ~r_edge ~r_source:r_edge
          ~r_target:Attrs.empty
      in
      let residual = Eval.specialize ~v_edge ~v_source ~v_target:Attrs.empty e in
      let run expr = match Eval.accepts env expr with b -> Some b | exception Eval.Eval_error _ -> None in
      run e = run residual)

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"print/parse roundtrip preserves AST" ~count:500
    (QCheck.make ~print:Ast.to_string gen_expr)
    (fun e ->
      match Expr.parse (Ast.to_string e) with
      | Ok e' -> Ast.equal e e'
      | Error _ -> false)

let prop_parser_total =
  QCheck.Test.make ~name:"parse_result is total on arbitrary strings" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_range 0 60))
    (fun s -> match Expr.parse s with Ok _ | Error _ -> true)

let () =
  Alcotest.run "expr"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick test_precedence;
          Alcotest.test_case "left associativity" `Quick test_left_assoc;
          Alcotest.test_case "attr access" `Quick test_attr_access;
          Alcotest.test_case "calls" `Quick test_call_parse;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error positions" `Quick test_error_positions;
          Alcotest.test_case "paper fragments" `Quick test_roundtrip_paper_fragments;
          QCheck_alcotest.to_alcotest prop_print_parse_roundtrip;
          QCheck_alcotest.to_alcotest prop_parser_total;
          QCheck_alcotest.to_alcotest prop_specialize_equivalent;
        ] );
      ( "eval",
        [
          Alcotest.test_case "arithmetic" `Quick test_eval_arith;
          Alcotest.test_case "booleans" `Quick test_eval_bool;
          Alcotest.test_case "strings" `Quick test_eval_strings;
          Alcotest.test_case "attributes" `Quick test_eval_attrs;
          Alcotest.test_case "missing attrs" `Quick test_missing_attr_is_false;
          Alcotest.test_case "isBoundTo" `Quick test_is_bound_to;
          Alcotest.test_case "errors" `Quick test_eval_errors;
          Alcotest.test_case "orientation swap" `Quick test_swap_orientation;
          Alcotest.test_case "evaluation order" `Quick test_evaluation_order;
        ] );
      ( "specialize",
        [
          Alcotest.test_case "agrees with eval" `Quick test_specialize_agrees;
          Alcotest.test_case "constant folding" `Quick test_specialize_folds;
        ] );
      ( "stock", [ Alcotest.test_case "constraints" `Quick test_stock_constraints ] );
      ( "bounds",
        [
          Alcotest.test_case "extraction" `Quick test_bounds_extraction;
          Alcotest.test_case "satisfied" `Quick test_bounds_satisfied;
          Alcotest.test_case "interval" `Quick test_bounds_interval;
        ] );
      ("qcheck", [ QCheck_alcotest.to_alcotest qcheck_bounds_sound ]);
    ]
