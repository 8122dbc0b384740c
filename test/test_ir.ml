(* Tests for the behavioral front end: lexer, parser, SSA, lowering. *)

module L = Ir.Lexer
module P = Ir.Parser
module A = Ir.Ast
module S = Ir.Ssa

let check = Alcotest.check

let tokens_of s = List.map (fun t -> t.L.token) (L.tokenize s)

(* --- Lexer --------------------------------------------------------- *)

let test_lex_basic () =
  check Alcotest.int "count" 7 (List.length (tokens_of "x = a + 42;"));
  match tokens_of "x = a + 42;" with
  | [ L.IDENT "x"; L.ASSIGN; L.IDENT "a"; L.PLUS; L.INT 42; L.SEMI; L.EOF ] ->
    ()
  | _ -> Alcotest.fail "unexpected token stream"

let test_lex_operators () =
  match tokens_of "< > == << >> & | ^ ( ) { } , ;" with
  | [ L.LT; L.GT; L.EQEQ; L.SHL; L.SHR; L.AMP; L.PIPE; L.CARET; L.LPAREN;
      L.RPAREN; L.LBRACE; L.RBRACE; L.COMMA; L.SEMI; L.EOF ] ->
    ()
  | _ -> Alcotest.fail "operator stream"

let test_lex_keywords () =
  match tokens_of "input output if else iffy" with
  | [ L.KW_INPUT; L.KW_OUTPUT; L.KW_IF; L.KW_ELSE; L.IDENT "iffy"; L.EOF ] ->
    ()
  | _ -> Alcotest.fail "keywords"

let test_lex_comments () =
  check Alcotest.int "hash comment" 2
    (List.length (tokens_of "# nothing here\nx"));
  check Alcotest.int "slash comment" 2
    (List.length (tokens_of "// nothing\nx"))

let test_lex_positions () =
  let toks = L.tokenize "a\n  b" in
  (match toks with
  | [ a; b; _eof ] ->
    check Alcotest.int "a line" 1 a.L.line;
    check Alcotest.int "b line" 2 b.L.line;
    check Alcotest.int "b col" 3 b.L.column
  | _ -> Alcotest.fail "positions stream")

let test_lex_error () =
  (try
     ignore (L.tokenize "x = $;");
     Alcotest.fail "expected Lex_error"
   with L.Lex_error m ->
     check Alcotest.bool "position in message" true
       (String.length m > 0 && m.[0] = '1'))

(* --- Parser -------------------------------------------------------- *)

let test_parse_precedence () =
  (* mul binds tighter than add; add tighter than compare. *)
  match P.parse_expr "a + b * c < d" with
  | A.Binop
      ( A.Lt,
        A.Binop (A.Add, A.Var "a", A.Binop (A.Mul, A.Var "b", A.Var "c")),
        A.Var "d" ) ->
    ()
  | e -> Alcotest.failf "precedence: got %s" (Format.asprintf "%a" A.pp_expr e)

let test_parse_associativity () =
  match P.parse_expr "a - b - c" with
  | A.Binop (A.Sub, A.Binop (A.Sub, A.Var "a", A.Var "b"), A.Var "c") -> ()
  | _ -> Alcotest.fail "left associativity"

let test_parse_unary () =
  match P.parse_expr "-a * b" with
  | A.Binop (A.Mul, A.Neg (A.Var "a"), A.Var "b") -> ()
  | _ -> Alcotest.fail "unary binds tightest"

let test_parse_parens () =
  match P.parse_expr "(a + b) * c" with
  | A.Binop (A.Mul, A.Binop (A.Add, _, _), _) -> ()
  | _ -> Alcotest.fail "parens"

let test_parse_program () =
  let p = P.parse "input a, b; output y; y = a + b;" in
  check Alcotest.(list string) "inputs" [ "a"; "b" ] p.A.inputs;
  check Alcotest.(list string) "outputs" [ "y" ] p.A.outputs;
  check Alcotest.int "stmts" 1 (List.length p.A.body)

let test_parse_if () =
  let p =
    P.parse "input a; output y; if (a < 3) { y = 1; } else { y = 2; }"
  in
  match p.A.body with
  | [ A.If (A.Binop (A.Lt, _, _), [ A.Assign ("y", _) ], [ A.Assign ("y", _) ])
    ] ->
    ()
  | _ -> Alcotest.fail "if/else shape"

let test_parse_if_without_else () =
  let p = P.parse "input a; output y; y = 0; if (a) { y = 1; }" in
  match p.A.body with
  | [ _; A.If (_, [ _ ], []) ] -> ()
  | _ -> Alcotest.fail "if without else"

let expect_parse_error source fragment =
  try
    ignore (P.parse source);
    Alcotest.failf "expected failure on %S" source
  with
  | P.Parse_error m ->
    if
      not
        (let nl = String.length fragment and hl = String.length m in
         let rec go i =
           i + nl <= hl && (String.sub m i nl = fragment || go (i + 1))
         in
         go 0)
    then Alcotest.failf "error %S does not mention %S" m fragment
  | L.Lex_error _ -> ()

let test_parse_errors () =
  expect_parse_error "input a output y;" "expected";
  expect_parse_error "input a; output y; y = ;" "expected expression";
  expect_parse_error "input a; output y; y = (a;" "expected";
  expect_parse_error "input a; output y; if a { y = 1; }" "expected"

let test_validate_errors () =
  expect_parse_error "input a; output y; a = 1; y = a;" "assignment to input";
  expect_parse_error "input a; output y; y = z;" "read before assignment";
  expect_parse_error "input a; output y; x = a;" "output y never assigned";
  expect_parse_error "input a, a; output y; y = a;" "duplicate declaration";
  expect_parse_error "input a; output y; if (a) { t = 1; } else { }  y = t;"
    "read before assignment"

(* --- SSA ----------------------------------------------------------- *)

let hal_source =
  "input x, y, u, dx, a; output xl, ul, yl, c;\n\
   xl = x + dx; ul = u - 3*x*u*dx - 3*y*dx; yl = y + u*dx;\n\
   if (xl < a) { c = 1; } else { c = 0; }"

let test_ssa_single_assignment () =
  let ssa = S.of_ast (P.parse hal_source) in
  let names = S.defined_names ssa in
  check Alcotest.int "unique defs" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_ssa_phi_created () =
  let ssa = S.of_ast (P.parse hal_source) in
  check Alcotest.int "one phi" 1 (S.n_phis ssa)

let test_ssa_reassignment_versions () =
  let ssa =
    S.of_ast (P.parse "input a; output y; y = a; y = y + 1; y = y + 2;")
  in
  check Alcotest.int "three versions" 3 (List.length (S.defined_names ssa));
  check Alcotest.int "no phi" 0 (S.n_phis ssa);
  match ssa.S.outputs with
  | [ ("y", "y$3") ] -> ()
  | _ -> Alcotest.fail "output maps to last version"

let test_ssa_nested_if () =
  let src =
    "input a, b; output y;\n\
     y = 0;\n\
     if (a) { if (b) { y = 1; } else { y = 2; } } else { y = 3; }"
  in
  let ssa = S.of_ast (P.parse src) in
  check Alcotest.int "two phis" 2 (S.n_phis ssa)

let test_ssa_semantics_match_ast () =
  let ast = P.parse hal_source in
  let ssa = S.of_ast ast in
  let env = [ ("x", 2); ("y", 3); ("u", 4); ("dx", 5); ("a", 10) ] in
  check
    Alcotest.(list (pair string int))
    "ast = ssa"
    (List.sort compare (Ir.Interp.run ast env))
    (List.sort compare (Ir.Interp.run_ssa ssa env))

(* --- Lowering ------------------------------------------------------ *)

let test_lower_matches_interp () =
  let ast = P.parse hal_source in
  let ssa = S.of_ast ast in
  let g = Ir.Lower.run ssa in
  check Alcotest.bool "dag" true (Dfg.Graph.is_dag g);
  let env = [ ("x", 2); ("y", 3); ("u", 4); ("dx", 5); ("a", 10) ] in
  check
    Alcotest.(list (pair string int))
    "dfg = interp"
    (List.sort compare (Ir.Interp.run ast env))
    (List.sort compare (Dfg.Eval.outputs g env))

let test_lower_duplicate_operand () =
  let g = Ir.Lower.of_source "input a; output y; y = a * a;" in
  check Alcotest.bool "dag" true (Dfg.Graph.is_dag g);
  let movs =
    List.filter
      (fun v -> Dfg.Graph.op g v = Dfg.Op.Mov)
      (Dfg.Graph.vertices g)
  in
  check Alcotest.int "mov copy" 1 (List.length movs);
  check
    Alcotest.(list (pair string int))
    "squared" [ ("y", 49) ]
    (Dfg.Eval.outputs g [ ("a", 7) ])

let test_lower_select () =
  let g =
    Ir.Lower.of_source
      "input a, b; output y; if (a < b) { y = a; } else { y = b; }"
  in
  let selects =
    List.filter
      (fun v -> Dfg.Graph.op g v = Dfg.Op.Select)
      (Dfg.Graph.vertices g)
  in
  check Alcotest.int "one select" 1 (List.length selects);
  check
    Alcotest.(list (pair string int))
    "min(3,9)" [ ("y", 3) ]
    (Dfg.Eval.outputs g [ ("a", 3); ("b", 9) ]);
  check
    Alcotest.(list (pair string int))
    "min(9,3)" [ ("y", 3) ]
    (Dfg.Eval.outputs g [ ("a", 9); ("b", 3) ])

let test_lower_shared_constants () =
  let g = Ir.Lower.of_source "input a; output y, z; y = a + 3; z = a * 3;" in
  let consts =
    List.filter
      (fun v ->
        match Dfg.Graph.op g v with Dfg.Op.Const _ -> true | _ -> false)
      (Dfg.Graph.vertices g)
  in
  check Alcotest.int "one shared const" 1 (List.length consts)

(* --- repeat (bounded loops) ----------------------------------------- *)

let test_repeat_unrolls () =
  let src =
    "input x, c; output y; y = 0; t = x; repeat 4 { y = y + c * t; t = t + 1; }"
  in
  let ast = P.parse src in
  let ssa = S.of_ast ast in
  (* 2 assignments per iteration x 4 + the 2 initial defs, no phis *)
  check Alcotest.int "defs" 10 (List.length (S.defined_names ssa));
  check Alcotest.int "no phi" 0 (S.n_phis ssa);
  let env = [ ("x", 2); ("c", 3) ] in
  check Alcotest.int "value" 42 (List.assoc "y" (Ir.Interp.run ast env));
  check Alcotest.int "dfg value" 42
    (List.assoc "y" (Dfg.Eval.outputs (Ir.Lower.run ssa) env))

let test_repeat_zero () =
  let ast = P.parse "input x; output y; y = x; repeat 0 { y = y + 1; }" in
  check Alcotest.int "skipped" 5
    (List.assoc "y" (Ir.Interp.run ast [ ("x", 5) ]))

let test_repeat_with_if_inside () =
  let src =
    "input x; output y;\n\
     y = x;\n\
     repeat 3 { if (y < 10) { y = y * 2; } else { y = y + 1; } }"
  in
  let ast = P.parse src in
  let ssa = S.of_ast ast in
  check Alcotest.int "three phis" 3 (S.n_phis ssa);
  let run v = List.assoc "y" (Ir.Interp.run ast [ ("x", v) ]) in
  check Alcotest.int "from 1" 8 (run 1);
  check Alcotest.int "from 9" 20 (run 9);
  check Alcotest.int "from 50" 53 (run 50);
  let g = Ir.Lower.run ssa in
  check Alcotest.int "dfg agrees" 8
    (List.assoc "y" (Dfg.Eval.outputs g [ ("x", 1) ]))

let test_repeat_validation () =
  (* a variable first assigned inside the loop is usable afterwards *)
  let p = P.parse "input x; output y; repeat 2 { y = x + 1; }" in
  check Alcotest.bool "valid" true (A.validate p = Ok ());
  expect_parse_error "input x; output y; repeat 0 { y = x; }"
    "output y never assigned"

let test_repeat_schedulable () =
  let g =
    Ir.Lower.of_source
      "input x, c; output y; y = 0; t = x;\n\
       repeat 6 { y = y + c * t; t = t + 1; }"
  in
  let resources = Hard.Resources.fig3_2alu_2mul in
  let s = Soft.Scheduler.run_to_schedule ~resources g in
  check Alcotest.bool "valid schedule" true
    (Hard.Schedule.check ~resources s = Ok ())

(* --- random-program property --------------------------------------- *)

let random_program seed =
  let rng = Random.State.make [| seed |] in
  let inputs = [ "i0"; "i1"; "i2" ] in
  let vars = ref inputs in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let rec expr depth =
    if depth = 0 || Random.State.int rng 3 = 0 then
      if Random.State.bool rng then A.Var (pick !vars)
      else A.Int (Random.State.int rng 19 - 9)
    else begin
      let ops = [ A.Add; A.Sub; A.Mul; A.Lt; A.Xor; A.And ] in
      A.Binop (pick ops, expr (depth - 1), expr (depth - 1))
    end
  in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "t%d" !counter
  in
  let rec stmts budget =
    if budget = 0 then []
    else if Random.State.int rng 4 = 0 then begin
      let x = fresh () in
      let s =
        A.If (expr 2, [ A.Assign (x, expr 2) ], [ A.Assign (x, expr 2) ])
      in
      vars := x :: !vars;
      s :: stmts (budget - 1)
    end
    else begin
      let x = fresh () in
      let s = A.Assign (x, expr 3) in
      vars := x :: !vars;
      s :: stmts (budget - 1)
    end
  in
  let body = stmts (3 + Random.State.int rng 6) in
  let last =
    match List.rev body with
    | A.Assign (x, _) :: _ -> x
    | A.If (_, [ A.Assign (x, _) ], _) :: _ -> x
    | _ -> "t1"
  in
  let body = body @ [ A.Assign ("result", A.Var last) ] in
  { A.inputs; outputs = [ "result" ]; body }

let prop_pipeline_agrees =
  QCheck.Test.make ~name:"interp = ssa interp = dfg eval" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let ast = random_program seed in
      match A.validate ast with
      | Error _ -> QCheck.assume_fail ()
      | Ok () ->
        let ssa = S.of_ast ast in
        let g = Ir.Lower.run ssa in
        let env = [ ("i0", 3); ("i1", -2); ("i2", 7) ] in
        let a = List.sort compare (Ir.Interp.run ast env) in
        let b = List.sort compare (Ir.Interp.run_ssa ssa env) in
        let c = List.sort compare (Dfg.Eval.outputs g env) in
        a = b && b = c)

let prop_ssa_unique_defs =
  QCheck.Test.make ~name:"SSA never defines a name twice" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let ast = random_program seed in
      match A.validate ast with
      | Error _ -> QCheck.assume_fail ()
      | Ok () ->
        let names = S.defined_names (S.of_ast ast) in
        List.length names = List.length (List.sort_uniq compare names))

let () =
  Alcotest.run "ir"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lex_basic;
          Alcotest.test_case "operators" `Quick test_lex_operators;
          Alcotest.test_case "keywords" `Quick test_lex_keywords;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "positions" `Quick test_lex_positions;
          Alcotest.test_case "error" `Quick test_lex_error;
        ] );
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "associativity" `Quick test_parse_associativity;
          Alcotest.test_case "unary" `Quick test_parse_unary;
          Alcotest.test_case "parens" `Quick test_parse_parens;
          Alcotest.test_case "program" `Quick test_parse_program;
          Alcotest.test_case "if/else" `Quick test_parse_if;
          Alcotest.test_case "if without else" `Quick
            test_parse_if_without_else;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "validation errors" `Quick test_validate_errors;
        ] );
      ( "ssa",
        [
          Alcotest.test_case "single assignment" `Quick
            test_ssa_single_assignment;
          Alcotest.test_case "phi creation" `Quick test_ssa_phi_created;
          Alcotest.test_case "reassignment versions" `Quick
            test_ssa_reassignment_versions;
          Alcotest.test_case "nested if" `Quick test_ssa_nested_if;
          Alcotest.test_case "semantics preserved" `Quick
            test_ssa_semantics_match_ast;
        ] );
      ( "lower",
        [
          Alcotest.test_case "matches interpreter" `Quick
            test_lower_matches_interp;
          Alcotest.test_case "duplicate operand" `Quick
            test_lower_duplicate_operand;
          Alcotest.test_case "select" `Quick test_lower_select;
          Alcotest.test_case "shared constants" `Quick
            test_lower_shared_constants;
        ] );
      ( "repeat",
        [
          Alcotest.test_case "unrolls" `Quick test_repeat_unrolls;
          Alcotest.test_case "zero iterations" `Quick test_repeat_zero;
          Alcotest.test_case "with conditional" `Quick
            test_repeat_with_if_inside;
          Alcotest.test_case "validation" `Quick test_repeat_validation;
          Alcotest.test_case "schedulable" `Quick test_repeat_schedulable;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_pipeline_agrees; prop_ssa_unique_defs ] );
    ]
