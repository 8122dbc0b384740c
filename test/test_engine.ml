(* The scheduler portfolio: the Engine table, the QoR-annotated run
   wrapper, and the annealing and branch-and-bound engines.

   The load-bearing properties: every engine's output is a valid
   resource-constrained schedule (Schedule.check) whose soft state —
   when the engine returns one — passes the full threaded-graph
   invariant; every engine returns soon after its deadline; branch and
   bound degrades to its incumbent on any budget. *)

module Graph = Dfg.Graph
module Generate = Dfg.Generate
module R = Hard.Resources
module S = Hard.Schedule
module Engine = Soft.Engine
module Invariant = Soft.Invariant

let check = Alcotest.check
let two_two = R.fig3_2alu_2mul

let ok_or_fail label = function
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %s" label m

let get_engine name =
  match Engine.of_string name with
  | Ok e -> e
  | Error m -> Alcotest.fail m

(* --- engine table ---------------------------------------------------- *)

let test_registry_names () =
  let required = [ "soft"; "search"; "anneal"; "list"; "bnb"; "modulo" ] in
  List.iter
    (fun n ->
      check Alcotest.string (n ^ " resolves to itself") n
        (Engine.name (get_engine n)))
    required;
  (* aliases resolve to canonical engines *)
  List.iter
    (fun (alias, canon) ->
      check Alcotest.string (alias ^ " is an alias") canon
        (Engine.name (get_engine alias)))
    [
      ("threaded", "soft");
      ("sa", "anneal");
      ("exact", "bnb");
      ("exhaustive", "bnb");
      ("ims", "modulo");
      ("loop", "modulo");
      ("ANNEAL", "anneal");
    ];
  (match Engine.of_string "no-such-engine" with
  | Ok _ -> Alcotest.fail "bogus engine resolved"
  | Error m ->
    check Alcotest.bool "error names the portfolio" true
      (let has s sub =
         let n = String.length sub in
         let rec go i =
           i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
         in
         go 0
       in
       has m "anneal" && has m "bnb"));
  (* the whole table, in order: this suite links no serving layer and
     calls no setup *)
  check
    Alcotest.(list string)
    "engine table"
    [ "soft"; "search"; "anneal"; "list"; "bnb"; "modulo" ]
    (Engine.names ());
  check Alcotest.bool "naive is not an engine" true
    (Result.is_error (Engine.of_string "naive"))

(* --- annotated runs --------------------------------------------------- *)

let test_run_annotations () =
  let g = Hls_bench.Fig1.graph () in
  let o = Engine.run (get_engine "soft") ~resources:Hls_bench.Fig1.resources g in
  check Alcotest.string "engine name" "soft" o.Engine.annot.Engine.engine;
  check Alcotest.int "csteps = schedule length"
    (S.length o.Engine.schedule)
    o.Engine.annot.Engine.csteps;
  check Alcotest.bool "soft engine returns its state" true
    (Option.is_some o.Engine.state);
  check Alcotest.bool "registers positive on a real graph" true
    (o.Engine.annot.registers > 0);
  check Alcotest.bool "wall clock non-negative" true
    (o.Engine.annot.Engine.wall_s >= 0.0)

let test_compare_qor () =
  let g = Hls_bench.Fig1.graph () in
  let resources = Hls_bench.Fig1.resources in
  let o = Engine.run (get_engine "soft") ~resources g in
  let shorter =
    { o with annot = { o.Engine.annot with Engine.csteps = o.Engine.annot.Engine.csteps - 1 } }
  in
  check Alcotest.bool "fewer csteps wins" true (Engine.compare_qor shorter o < 0);
  let lighter =
    { o with annot = { o.Engine.annot with registers = 0 } }
  in
  check Alcotest.bool "registers break cstep ties" true
    (Engine.compare_qor lighter o < 0)

(* --- every engine produces valid schedules (QCheck) ------------------- *)

let random_graph seed =
  let n = 1 + (seed mod 24) in
  Generate.random_dag
    (Random.State.make [| seed; 0xe1 |])
    ~n ~edge_prob:0.25

(* Budgets keep the expensive engines (bnb subsets) proportionate on
   throwaway graphs; validity must hold at any budget. *)
let property_ctx = Engine.ctx ~seed:7 ~budget:5_000 ()

let validity_prop name run seed =
  let g = random_graph seed in
  let schedule, state = run g in
  (match S.check ~resources:two_two schedule with
  | Ok () -> ()
  | Error m ->
    QCheck.Test.fail_reportf "%s: invalid schedule on seed %d: %s" name seed m);
  (match state with
  | None -> ()
  | Some st -> (
    match Invariant.check_all st with
    | Ok () -> ()
    | Error m ->
      QCheck.Test.fail_reportf "%s: invariant broken on seed %d: %s" name
        seed m));
  true

(* Every engine, plus the speculative reference select (Soft.Naive),
   which is no engine but still backs the Theorem 2 cross-checks. *)
let validity_tests =
  let engine eng g =
    let o = Engine.run ~ctx:property_ctx eng ~resources:two_two g in
    (o.Engine.schedule, o.Engine.state)
  in
  let naive g =
    let st = Soft.Naive.run ~resources:two_two g in
    (Soft.Threaded_graph.to_schedule st, Some st)
  in
  List.map
    (fun (name, run) ->
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make
           ~name:(Printf.sprintf "%s: valid schedule + invariant" name)
           ~count:25 QCheck.small_nat (validity_prop name run)))
    (List.map (fun e -> (Engine.name e, engine e)) (Engine.all ())
    @ [ ("naive", naive) ])

(* --- the deadline rule ------------------------------------------------ *)

(* A 600-vertex / ~14k-edge DAG takes the slow engines seconds without a
   deadline; with a 50 ms one each must return a valid schedule within
   a quarter second. *)
let test_deadline_honoured () =
  let resources = R.make [ (R.Alu, 2); (R.Multiplier, 2); (R.Memory, 1) ] in
  let g =
    Generate.random_dag (Random.State.make [| 42 |]) ~n:600
      ~edge_prob:(48. /. 600.)
  in
  List.iter
    (fun eng ->
      let name = Engine.name eng in
      let t0 = Unix.gettimeofday () in
      let ctx = Engine.ctx ~deadline:(t0 +. 0.05) () in
      let o = Engine.run ~ctx eng ~resources g in
      let wall = Unix.gettimeofday () -. t0 in
      ok_or_fail (name ^ " schedule") (S.check ~resources o.Engine.schedule);
      if wall > 0.25 then
        Alcotest.failf "%s returned %.3f s after a 50 ms deadline" name wall)
    (Engine.all ())

(* Past its deadline the soft engine still runs its one linear pass:
   the schedule is the no-deadline one, and only the annotation says
   the result came late. *)
let test_soft_past_deadline () =
  let resources = R.make [ (R.Alu, 2); (R.Multiplier, 2); (R.Memory, 1) ] in
  let g =
    Generate.random_dag (Random.State.make [| 42 |]) ~n:600
      ~edge_prob:(48. /. 600.)
  in
  let run ?deadline () =
    (Engine.run ~ctx:(Engine.ctx ?deadline ()) (get_engine "soft") ~resources g)
      .Engine.annot
  in
  let on_time = run () in
  let late = run ~deadline:(Unix.gettimeofday () -. 1.0) () in
  check Alcotest.int "no-deadline csteps" on_time.Engine.csteps
    late.Engine.csteps;
  check Alcotest.bool "on time, not degraded" false on_time.Engine.degraded;
  check Alcotest.bool "late, degraded" true late.Engine.degraded

let test_degraded_rule () =
  let g = Hls_bench.Suite.(find "HAL").build () in
  let run ?deadline name =
    (Engine.run ~ctx:(Engine.ctx ?deadline ()) (get_engine name)
       ~resources:two_two g)
      .Engine.annot
  in
  let past = Unix.gettimeofday () -. 1.0 in
  check Alcotest.bool "no deadline, not degraded" false (run "list").Engine.degraded;
  check Alcotest.bool "overrun deadline degrades" true
    (run ~deadline:past "list").Engine.degraded;
  check Alcotest.bool "far deadline, not degraded" false
    (run ~deadline:(past +. 3600.) "anneal").Engine.degraded;
  (* a proof of optimality does not depend on machine speed *)
  let chain = Generate.chain ~n:4 in
  let bnb =
    Engine.run ~ctx:(Engine.ctx ~deadline:past ()) (get_engine "bnb")
      ~resources:two_two chain
  in
  check Alcotest.bool "bnb proves the chain" true bnb.Engine.annot.Engine.optimal;
  check Alcotest.bool "optimal is never degraded" false
    bnb.Engine.annot.Engine.degraded

(* --- determinism ------------------------------------------------------ *)

let test_seed_determinism () =
  let resources = two_two in
  List.iter
    (fun name ->
      let eng = get_engine name in
      let run seed =
        let g = Hls_bench.Suite.(find "HAL").build () in
        let o = Engine.run ~ctx:(Engine.ctx ~seed ()) eng ~resources g in
        S.starts o.Engine.schedule
      in
      check
        Alcotest.(array int)
        (name ^ ": same seed, same schedule")
        (run 42) (run 42))
    [ "anneal"; "search" ];
  (* and the annealer never regresses its topo-order starting point *)
  let g = Hls_bench.Suite.(find "HAL").build () in
  let soft = Engine.run (get_engine "soft") ~resources g in
  let annealed =
    Engine.run ~ctx:(Engine.ctx ~seed:1 ()) (get_engine "anneal") ~resources g
  in
  check Alcotest.bool "anneal <= soft on csteps" true
    (annealed.Engine.annot.Engine.csteps <= soft.Engine.annot.Engine.csteps)

(* --- branch and bound degradation ------------------------------------- *)

let test_bnb_incumbent_fallback () =
  let g = Hls_bench.Suite.(find "AR").build () in
  let r = Hard.Exact_bb.run ~node_limit:1 ~resources:two_two g in
  check Alcotest.bool "budget exhausted" false r.Hard.Exact_bb.optimal;
  ok_or_fail "incumbent is valid"
    (S.check ~resources:two_two r.Hard.Exact_bb.schedule);
  let seed = Hard.List_sched.run ~resources:two_two g in
  check Alcotest.bool "incumbent no worse than its list-scheduling seed" true
    (S.length r.Hard.Exact_bb.schedule <= S.length seed)

let test_bnb_should_stop () =
  let g = Hls_bench.Suite.(find "AR").build () in
  let r =
    Hard.Exact_bb.run
      ~should_stop:(fun () -> true)
      ~resources:two_two g
  in
  (* the cutoff is polled, so the search stops early but still returns
     the (valid) incumbent *)
  ok_or_fail "stopped search returns a valid schedule"
    (S.check ~resources:two_two r.Hard.Exact_bb.schedule)

let test_bnb_still_optimal_on_chain () =
  (* The ALAP/ASAP pruning must not cut the optimum away. *)
  let g = Generate.chain ~n:6 in
  let r = Hard.Exact_bb.run ~resources:two_two g in
  check Alcotest.bool "optimal" true r.Hard.Exact_bb.optimal;
  let soft = Soft.Scheduler.run_to_schedule ~resources:two_two g in
  check Alcotest.bool "bnb <= soft" true
    (S.length r.Hard.Exact_bb.schedule <= S.length soft)

let bnb_matches_unpruned_prop seed =
  (* The strengthened bounds only prune; the optimum is unchanged. An
     unbounded run on small graphs is the ground truth. *)
  let g =
    Generate.random_dag (Random.State.make [| seed; 0xbb |]) ~n:(1 + (seed mod 8))
      ~edge_prob:0.3
  in
  let r = Hard.Exact_bb.run ~resources:two_two g in
  if not r.Hard.Exact_bb.optimal then true
  else begin
    let brute = Hard.Exact_bb.run ~node_limit:50_000_000 ~resources:two_two g in
    r.Hard.Exact_bb.schedule |> S.length
    = S.length brute.Hard.Exact_bb.schedule
  end

let () =
  Alcotest.run "engine"
    [
      ( "registry",
        [
          Alcotest.test_case "names and aliases" `Quick test_registry_names;
        ] );
      ( "annotations",
        [
          Alcotest.test_case "run annotates" `Quick test_run_annotations;
          Alcotest.test_case "qor order" `Quick test_compare_qor;
        ] );
      ("validity", validity_tests);
      ( "deadline",
        [
          Alcotest.test_case "every engine returns on time" `Quick
            test_deadline_honoured;
          Alcotest.test_case "late results are degraded" `Quick
            test_degraded_rule;
          Alcotest.test_case "soft past its deadline" `Quick
            test_soft_past_deadline;
        ] );
      ( "determinism",
        [ Alcotest.test_case "seeded engines" `Quick test_seed_determinism ] );
      ( "bnb",
        [
          Alcotest.test_case "incumbent fallback" `Quick
            test_bnb_incumbent_fallback;
          Alcotest.test_case "should_stop cutoff" `Quick test_bnb_should_stop;
          Alcotest.test_case "optimal on chain" `Quick
            test_bnb_still_optimal_on_chain;
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~name:"pruning preserves the optimum" ~count:20
               QCheck.small_nat bnb_matches_unpruned_prop);
        ] );
    ]
