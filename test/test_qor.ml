(* QoR layer tests: the JSON reader itself, the versioned run-report
   schema (emit -> parse round-trip), the regression diff gate and the
   online invariant auditor over the whole benchmark suite. *)

module Json = Qor.Json

let check = Alcotest.check

let resources = Hard.Resources.fig3_2alu_2mul

let build name () = (Hls_bench.Suite.find name).Hls_bench.Suite.build ()

let run ?audit_rate name =
  Qor.Flow.run ?audit_rate ~tool_version:"test" ~resources ~design:name
    ~build:(build name) ()

(* --- Json ----------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd\tt");
        ("u", Json.Str "caf\xc3\xa9");
        ("i", Json.int 42);
        ("neg", Json.num (-17.5));
        ("big", Json.num 1e22);
        ("t", Json.Bool true);
        ("f", Json.Bool false);
        ("z", Json.Null);
        ("a", Json.Arr [ Json.int 1; Json.Arr []; Json.Obj [] ]);
      ]
  in
  let reparse ?minify () = Json.parse (Json.to_string ?minify v) in
  check Alcotest.bool "pretty round-trip" true (reparse () = v);
  check Alcotest.bool "minified round-trip" true (reparse ~minify:true () = v)

let test_json_escapes () =
  (* \uXXXX escapes decode to UTF-8 *)
  (match Json.parse {|"café"|} with
  | Json.Str s -> check Alcotest.string "unicode escape" "caf\xc3\xa9" s
  | _ -> Alcotest.fail "expected string");
  match Json.parse {|"\n\t\\\""|} with
  | Json.Str s -> check Alcotest.string "simple escapes" "\n\t\\\"" s
  | _ -> Alcotest.fail "expected string"

let test_json_rejects () =
  let bad s =
    match Json.parse_result s with
    | Ok _ -> Alcotest.failf "accepted malformed input %S" s
    | Error _ -> ()
  in
  List.iter bad
    [
      ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "{} trailing"; "\"unterminated";
      "{\"a\" 1}"; "[1 2]"; "+5";
    ]

(* Malformed strings fail with [Parse_error] alone, at the byte offset
   the scanner stopped on — including an escape-free run that reaches
   the end of the input. *)
let test_json_string_errors () =
  List.iter
    (fun (input, expect) ->
      match Json.parse input with
      | v ->
        Alcotest.failf "accepted %S as %s" input (Json.to_string ~minify:true v)
      | exception Json.Parse_error m -> check Alcotest.string input expect m)
    [
      ({|"abc|}, "unterminated string at byte 4");
      ({|"|}, "unterminated string at byte 1");
      ({|"a\nbc|}, "unterminated string at byte 6");
      ({|{"key|}, "unterminated string at byte 5");
      ({|"ab\|}, "bad escape at byte 4");
      ({|"\q"|}, "bad escape at byte 2");
      ({|"\u12|}, "truncated \\u escape at byte 3");
      ({|"x\u|}, "truncated \\u escape at byte 4");
      ({|"\uzzzz"|}, "bad \\u escape at byte 3");
    ]

(* Random byte strings built to stress the escape-free-run scanner:
   quotes, backslashes, control characters, high bytes and literal
   "\u00.." text. *)
let json_string_gen =
  let open QCheck.Gen in
  let piece =
    frequency
      [
        (4, string_size ~gen:(char_range 'a' 'z') (int_range 0 12));
        (2, oneofl [ "\""; "\\"; "\\u00e9"; "\\u"; "\\\\"; "/" ]);
        (2, map (String.make 1) (map Char.chr (int_range 0 31)));
        (1, map (String.make 1) (map Char.chr (int_range 128 255)));
      ]
  in
  map (String.concat "") (list_size (int_range 0 10) piece)

let prop_json_string_roundtrip =
  QCheck.Test.make ~name:"parse (to_string (Str s)) = Str s" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") json_string_gen)
    (fun s ->
      Json.parse (Json.to_string (Json.Str s)) = Json.Str s
      && Json.parse (Json.to_string ~minify:true (Json.Obj [ (s, Json.Str s) ]))
         = Json.Obj [ (s, Json.Str s) ])

(* The other direction: a string literal assembled from raw runs and
   every escape form decodes to the bytes the escapes stand for. *)
let prop_json_escape_decoding =
  let open QCheck.Gen in
  let piece =
    frequency
      [
        ( 3,
          map
            (fun s -> (s, s))
            (string_size ~gen:(char_range ' ' '~') (int_range 0 8)
            |> map (String.map (function '"' | '\\' -> '_' | c -> c))) );
        ( 2,
          oneofl
            [
              ({|\n|}, "\n"); ({|\t|}, "\t"); ({|\r|}, "\r"); ({|\b|}, "\b");
              ({|\f|}, "\012"); ({|\/|}, "/"); ({|\\|}, "\\"); ({|\"|}, "\"");
            ] );
        ( 2,
          map
            (fun c -> (Printf.sprintf "\\u%04X" c, String.make 1 (Char.chr c)))
            (int_range 0 127) );
        (1, return ({|é|}, "\xc3\xa9"));
        (1, return ({|€|}, "\xe2\x82\xac"));
      ]
  in
  let doc = list_size (int_range 0 8) piece in
  QCheck.Test.make ~name:"escapes decode, raw runs copy through" ~count:1000
    (QCheck.make
       ~print:(fun ps -> String.concat "" (List.map fst ps))
       doc)
    (fun ps ->
      let text = "\"" ^ String.concat "" (List.map fst ps) ^ "\"" in
      Json.parse text = Json.Str (String.concat "" (List.map snd ps)))

let test_json_numbers () =
  (* integral floats print without a decimal point and survive *)
  check Alcotest.string "integral" "1234567" (Json.to_string (Json.int 1234567));
  check Alcotest.bool "fraction round-trips" true
    (Json.parse (Json.to_string (Json.num 0.1)) = Json.Num 0.1)

(* --- report schema --------------------------------------------------- *)

let test_report_schema () =
  let report = run ~audit_rate:1 "HAL" in
  let text = Qor.Report.to_string report in
  let json = Json.parse text in
  (* top-level stable fields *)
  check Alcotest.bool "tool discriminator" true
    (Json.member "tool" json = Some (Json.Str Qor.Report.tool));
  check Alcotest.bool "schema version" true
    (Json.member "schema_version" json
    = Some (Json.Num (float_of_int Qor.Report.schema_version)));
  check Alcotest.bool "design" true
    (Json.member "design" json = Some (Json.Str "HAL"));
  let phases =
    match Json.member "phases" json with
    | Some (Json.Arr l) -> l
    | _ -> Alcotest.fail "missing phases array"
  in
  (* exactly the documented flow phases, in order *)
  let names =
    List.map
      (fun p ->
        match Json.member "phase" p with
        | Some (Json.Str s) -> s
        | _ -> Alcotest.fail "phase entry without name")
      phases
  in
  check Alcotest.(list string) "phase list" Qor.Flow.phases names;
  (* required fields per phase *)
  List.iter
    (fun p ->
      let has k = Json.member k p <> None in
      check Alcotest.bool "wall_ns" true (has "wall_ns");
      check Alcotest.bool "alloc_words" true (has "alloc_words");
      (match Json.member "counters" p with
      | Some (Json.Obj _) -> ()
      | _ -> Alcotest.fail "counters must be an object");
      match Json.member "metrics" p with
      | Some (Json.Arr ms) ->
        check Alcotest.bool "phase has metrics" true (ms <> []);
        List.iter
          (fun m ->
            (match Json.member "name" m with
            | Some (Json.Str _) -> ()
            | _ -> Alcotest.fail "metric without name");
            (match Json.member "value" m with
            | Some (Json.Num _) -> ()
            | _ -> Alcotest.fail "metric without numeric value");
            match Json.member "better" m with
            | Some (Json.Str ("lower" | "higher" | "info")) -> ()
            | _ -> Alcotest.fail "metric with bad gating direction")
          ms
      | _ -> Alcotest.fail "metrics must be an array")
    phases;
  (* audit block present and clean *)
  (match Json.member "audit" json with
  | Some (Json.Obj _ as a) ->
    check Alcotest.bool "zero violations" true
      (Json.member "violations" a = Some (Json.Num 0.))
  | _ -> Alcotest.fail "audit block missing despite --audit");
  (* the parser accepts what the printer emits, and the round-trip
     preserves every field the diff gate reads *)
  match Qor.Report.of_string text with
  | Error m -> Alcotest.failf "report does not re-parse: %s" m
  | Ok back ->
    check Alcotest.string "design round-trip" report.Qor.Report.design
      back.Qor.Report.design;
    check Alcotest.string "resources round-trip" report.Qor.Report.resources
      back.Qor.Report.resources;
    check Alcotest.int "span count round-trip"
      (List.length report.Qor.Report.spans)
      (List.length back.Qor.Report.spans);
    match Qor.Diff.compare ~baseline:report ~current:back () with
    | Error m -> Alcotest.failf "self-diff errored: %s" m
    | Ok r -> check Alcotest.bool "round-trip is QoR-identical" true
                (Qor.Diff.ok r && r.Qor.Diff.regressions = []
                && r.Qor.Diff.improvements = [])

let test_report_rejects_foreign () =
  let reject s =
    match Qor.Report.of_string s with
    | Ok _ -> Alcotest.failf "accepted foreign report %S" s
    | Error _ -> ()
  in
  List.iter reject
    [
      "{}";
      {|{"tool": "other-tool", "schema_version": 1}|};
      {|{"tool": "softsched-report", "schema_version": 999, "design": "X",
         "resources": "", "tool_version": "", "git": "", "phases": []}|};
      "not json at all";
    ]

(* --- diff gate ------------------------------------------------------- *)

(* Worsen one gated metric by [pct] percent and return the doctored
   report. *)
let worsen report ~phase ~metric:mname ~pct =
  let open Qor.Metrics in
  let spans =
    List.map
      (fun s ->
        if s.phase <> phase then s
        else
          {
            s with
            metrics =
              List.map
                (fun m ->
                  if m.name <> mname then m
                  else
                    let sign =
                      match m.direction with
                      | Lower_better -> 1.
                      | Higher_better -> -1.
                      | Info -> 0.
                    in
                    { m with value = m.value *. (1. +. (sign *. pct /. 100.)) })
                s.metrics;
          })
      report.Qor.Report.spans
  in
  { report with Qor.Report.spans }

let test_diff_regression () =
  let baseline = run "HAL" in
  (* worsen the schedule diameter — the headline gated metric *)
  let current =
    worsen baseline ~phase:"soft_schedule" ~metric:"csteps" ~pct:50.
  in
  match Qor.Diff.compare ~baseline ~current () with
  | Error m -> Alcotest.failf "diff errored: %s" m
  | Ok r ->
    check Alcotest.bool "gate fails" false (Qor.Diff.ok r);
    (match r.Qor.Diff.regressions with
    | [ f ] ->
      check Alcotest.string "names the phase" "soft_schedule" f.Qor.Diff.phase;
      check Alcotest.string "names the metric" "csteps" f.Qor.Diff.name;
      check Alcotest.bool "reports the movement" true
        (abs_float (f.Qor.Diff.change_pct -. 50.) < 1e-6)
    | l -> Alcotest.failf "expected exactly one regression, got %d"
             (List.length l));
    (* the verdict names the offender *)
    let rendered = Qor.Diff.render r in
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh
        && (String.sub hay i nn = needle || go (i + 1)) in
      nn = 0 || go 0
    in
    check Alcotest.bool "render names offender" true
      (contains rendered "soft_schedule/csteps");
    check Alcotest.bool "render says FAIL" true (contains rendered "FAIL")

let test_diff_tolerance () =
  let baseline = run "HAL" in
  let current =
    worsen baseline ~phase:"soft_schedule" ~metric:"csteps" ~pct:5.
  in
  (match Qor.Diff.compare ~max_regress_pct:10. ~baseline ~current () with
  | Error m -> Alcotest.failf "diff errored: %s" m
  | Ok r -> check Alcotest.bool "5% within 10% tolerance" true (Qor.Diff.ok r));
  match Qor.Diff.compare ~max_regress_pct:2. ~baseline ~current () with
  | Error m -> Alcotest.failf "diff errored: %s" m
  | Ok r -> check Alcotest.bool "5% beyond 2% tolerance" false (Qor.Diff.ok r)

let test_diff_improvement_passes () =
  let baseline = run "HAL" in
  (* a *better* current run must never trip the gate *)
  let current =
    worsen baseline ~phase:"soft_schedule" ~metric:"csteps" ~pct:(-20.)
  in
  match Qor.Diff.compare ~baseline ~current () with
  | Error m -> Alcotest.failf "diff errored: %s" m
  | Ok r ->
    check Alcotest.bool "gate passes" true (Qor.Diff.ok r);
    check Alcotest.bool "improvement recorded" true
      (r.Qor.Diff.improvements <> [])

let test_diff_design_mismatch () =
  let a = run "HAL" and b = run "AR" in
  match Qor.Diff.compare ~baseline:a ~current:b () with
  | Ok _ -> Alcotest.fail "cross-design diff must be refused"
  | Error _ -> ()

(* --- auditor over the full suite ------------------------------------- *)

let audit_clean name () =
  let report = run ~audit_rate:1 name in
  match report.Qor.Report.audit with
  | None -> Alcotest.fail "audit summary missing"
  | Some a ->
    check Alcotest.bool "auditor sampled events" true
      (a.Qor.Audit.events_seen > 0);
    check Alcotest.bool "auditor ran checks" true (a.Qor.Audit.checks_run > 0);
    check Alcotest.int "zero invariant violations" 0 a.Qor.Audit.violations

let test_audit_sampling () =
  (* rate 3 checks roughly a third of the commits (plus the per-phase
     boundary checks), never more than rate 1 *)
  let r1 = run ~audit_rate:1 "EF" and r3 = run ~audit_rate:3 "EF" in
  match (r1.Qor.Report.audit, r3.Qor.Report.audit) with
  | Some a1, Some a3 ->
    check Alcotest.int "same event stream" a1.Qor.Audit.events_seen
      a3.Qor.Audit.events_seen;
    check Alcotest.bool "sampling runs fewer checks" true
      (a3.Qor.Audit.checks_run < a1.Qor.Audit.checks_run)
  | _ -> Alcotest.fail "audit summaries missing"

(* --- determinism (what makes reports diffable) ----------------------- *)

let test_flow_deterministic () =
  let a = run "FIR" and b = run "FIR" in
  match Qor.Diff.compare ~baseline:a ~current:b () with
  | Error m -> Alcotest.failf "diff errored: %s" m
  | Ok r ->
    check Alcotest.bool "two runs are QoR-identical" true
      (Qor.Diff.ok r && r.Qor.Diff.regressions = []
      && r.Qor.Diff.improvements = [])

let () =
  let suite_audit =
    List.map
      (fun e ->
        let name = e.Hls_bench.Suite.name in
        Alcotest.test_case name `Quick (audit_clean name))
      Hls_bench.Suite.all
  in
  Alcotest.run "qor"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects;
          Alcotest.test_case "number printing" `Quick test_json_numbers;
          Alcotest.test_case "string errors" `Quick test_json_string_errors;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_json_string_roundtrip; prop_json_escape_decoding ] );
      ( "report schema",
        [
          Alcotest.test_case "emit + parse round-trip" `Quick
            test_report_schema;
          Alcotest.test_case "rejects foreign files" `Quick
            test_report_rejects_foreign;
        ] );
      ( "diff gate",
        [
          Alcotest.test_case "regression fails the gate" `Quick
            test_diff_regression;
          Alcotest.test_case "tolerance" `Quick test_diff_tolerance;
          Alcotest.test_case "improvement passes" `Quick
            test_diff_improvement_passes;
          Alcotest.test_case "design mismatch refused" `Quick
            test_diff_design_mismatch;
        ] );
      ("audit: suite is invariant-clean", suite_audit);
      ( "determinism",
        [
          Alcotest.test_case "audit sampling" `Quick test_audit_sampling;
          Alcotest.test_case "repeated runs diff clean" `Quick
            test_flow_deterministic;
        ] );
    ]
