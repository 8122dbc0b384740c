(* Tests for the retiming substrate and the resource-constrained
   retimer (paper outlook #2). *)

module L = Modulo.Loop_graph
module Rt = Retime.Retimer
module W = Retime.Workloads
module R = Hard.Resources

let check = Alcotest.check
let two_two = R.fig3_2alu_2mul
let total_registers g =
  List.fold_left (fun acc (_, _, w) -> acc + w) 0 (L.edges g)

(* --- sequential graphs ------------------------------------------------ *)

let tiny () =
  (* a -> b (0 regs), b -> a (2 regs): a legal 2-vertex loop *)
  let g = L.create () in
  let a = L.add_vertex g ~name:"a" Dfg.Op.Add in
  let b = L.add_vertex g ~name:"b" Dfg.Op.Mul in
  L.add_edge g a b;
  L.add_edge g ~distance:2 b a;
  (g, a, b)

let test_combinational_loop_detected () =
  let g = L.create () in
  let a = L.add_vertex g Dfg.Op.Add in
  let b = L.add_vertex g Dfg.Op.Add in
  L.add_edge g a b;
  L.add_edge g b a;
  check Alcotest.bool "ill formed" true (L.well_formed g <> Ok ());
  (try
     ignore (Rt.combinational_slice g);
     Alcotest.fail "expected Invalid_argument from the slice"
   with Invalid_argument _ -> ())

let test_combinational_slice () =
  let g, _, _ = tiny () in
  let dag = Rt.combinational_slice g in
  check Alcotest.bool "dag" true (Dfg.Graph.is_dag dag);
  (* 2 ops + 1 register-input pseudo vertex *)
  check Alcotest.int "slice vertices" 3 (Dfg.Graph.n_vertices dag);
  check Alcotest.int "period = a+b delay" 3 (Rt.combinational_period g)

let test_retime_legality () =
  let g, _, _ = tiny () in
  (* moving one register from b->a onto a->b *)
  let r = Rt.retime g ~lag:[| 0; 1 |] in
  check Alcotest.int "registers conserved" 2 (total_registers r);
  check Alcotest.int "period drops" 2 (Rt.combinational_period r);
  Alcotest.check_raises "illegal lag"
    (Invalid_argument "Retimer.retime: edge a -> b gets weight -1")
    (fun () -> ignore (Rt.retime g ~lag:[| 1; 0 |]))

let test_retime_bad_lag_size () =
  let g, _, _ = tiny () in
  (try
     ignore (Rt.retime g ~lag:[| 0 |]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* --- workloads ------------------------------------------------------ *)

let test_workload_shapes () =
  let ring = W.ring ~ops:8 ~registers:2 in
  check Alcotest.bool "ring well formed" true (L.well_formed ring = Ok ());
  check Alcotest.int "ring registers" 2 (total_registers ring);
  let correlator = W.correlator ~taps:6 in
  check Alcotest.bool "correlator well formed" true
    (L.well_formed correlator = Ok ());
  let pipeline = W.pipeline ~stages:5 ~slack_registers:2 in
  check Alcotest.bool "pipeline well formed" true
    (L.well_formed pipeline = Ok ())

(* --- retimer -------------------------------------------------------- *)

let test_min_period_ring () =
  (* 8 ops alternating mul(2)/add(1): total delay 12, 2 registers; the
     cycle bound is ceil(12/2) = 6 and FEAS must reach it. *)
  let g = W.ring ~ops:8 ~registers:2 in
  let period, lag = Rt.min_period g in
  check Alcotest.int "min period" 6 period;
  let retimed = Rt.retime g ~lag in
  check Alcotest.int "achieved" 6 (Rt.combinational_period retimed);
  check Alcotest.int "registers conserved" 2 (total_registers retimed)

let test_min_period_pipeline () =
  (* 5 stages of mul+add = 15 delay, 2 slack registers: best split is
     ceil over three segments >= 5; FEAS should get close to 5..6 *)
  let g = W.pipeline ~stages:5 ~slack_registers:2 in
  let period, _ = Rt.min_period g in
  check Alcotest.bool (Printf.sprintf "period %d in [5, 7]" period) true
    (period >= 5 && period <= 7)

let test_feas_infeasible () =
  let g = W.ring ~ops:8 ~registers:2 in
  (* below the cycle bound of 6 no retiming exists *)
  check Alcotest.bool "period 5 infeasible" true
    (Rt.feas g ~period:5 = None)

let test_constrained_never_regresses () =
  List.iter
    (fun (name, g) ->
      let o = Rt.constrained ~resources:two_two g in
      check Alcotest.bool
        (Printf.sprintf "%s csteps %d <= %d" name o.Rt.csteps_after
           o.Rt.csteps_before)
        true
        (o.Rt.csteps_after <= o.Rt.csteps_before))
    [
      ("ring8x2", W.ring ~ops:8 ~registers:2);
      ("ring12x3", W.ring ~ops:12 ~registers:3);
      ("correlator6", W.correlator ~taps:6);
      ("pipeline5+2", W.pipeline ~stages:5 ~slack_registers:2);
    ]

(* The bench's Ablation E rows under two ALUs and two multipliers,
   lag vectors included. The threaded scheduler breaks ties by vertex
   and edge order, so a drift in the combinational slice's order moves
   these numbers even where the periods agree. *)
let test_constrained_pinned () =
  List.iter
    (fun (name, g, (pb, pa), (cb, ca), lag) ->
      let o = Rt.constrained ~resources:two_two g in
      check
        Alcotest.(pair int int)
        (name ^ " period") (pb, pa)
        (o.Rt.period_before, o.Rt.period_after);
      check
        Alcotest.(pair int int)
        (name ^ " csteps") (cb, ca)
        (o.Rt.csteps_before, o.Rt.csteps_after);
      check Alcotest.(array int) (name ^ " lag") lag o.Rt.lag)
    [
      ( "ring8x2", W.ring ~ops:8 ~registers:2, (12, 6), (12, 6),
        [| 0; 0; 0; 0; 1; 1; 1; 1 |] );
      ( "ring12x3", W.ring ~ops:12 ~registers:3, (18, 6), (18, 8),
        [| 0; 0; 0; 0; 1; 1; 1; 1; 2; 2; 2; 2 |] );
      ( "ring16x4", W.ring ~ops:16 ~registers:4, (24, 6), (24, 9),
        [| 0; 0; 0; 0; 1; 1; 1; 1; 2; 2; 2; 2; 3; 3; 3; 3 |] );
      ( "correlator6", W.correlator ~taps:6, (7, 3), (7, 6),
        [| 2; 1; 0; 0; 0; 0; 0; 0; 0; 1; 1; 1 |] );
      ( "correlator8", W.correlator ~taps:8, (9, 3), (9, 8),
        [| 2; 2; 1; 0; 0; 0; 0; 0; 0; 0; 0; 1; 1; 1; 2; 2 |] );
      ( "pipeline5+2", W.pipeline ~stages:5 ~slack_registers:2, (15, 6),
        (15, 8), [| 0; 0; 0; 0; 0; 1; 1; 1; 1; 2; 2; 0 |] );
    ]

let test_constrained_respects_resources () =
  (* With only one multiplier the schedule-driven choice can differ
     from the pure-period optimum: verify the reported csteps are real
     (re-schedule the chosen retiming and compare). *)
  let resources = R.make [ (R.Alu, 1); (R.Multiplier, 1) ] in
  let g = W.ring ~ops:12 ~registers:3 in
  let o = Rt.constrained ~resources g in
  let dag = Rt.combinational_slice (Rt.retime g ~lag:o.Rt.lag) in
  let s = Soft.Scheduler.run_to_schedule ~resources dag in
  check Alcotest.int "reported = recomputed" o.Rt.csteps_after
    (Hard.Schedule.length s);
  check Alcotest.bool "valid" true
    (Hard.Schedule.check ~resources s = Ok ())

let prop_retiming_conserves_cycle_registers =
  QCheck.Test.make ~name:"retiming conserves registers on the ring cycle"
    ~count:40
    QCheck.(pair (int_range 2 12) (int_range 1 4))
    (fun (ops, registers) ->
      let g = W.ring ~ops ~registers in
      match Rt.min_period g with
      | _, lag ->
        total_registers (Rt.retime g ~lag) = registers)

let prop_feas_meets_target =
  QCheck.Test.make ~name:"FEAS results meet their target period" ~count:40
    QCheck.(pair (int_range 2 12) (int_range 1 4))
    (fun (ops, registers) ->
      let g = W.ring ~ops ~registers in
      let upper = Rt.combinational_period g in
      List.for_all
        (fun period ->
          match Rt.feas g ~period with
          | None -> true
          | Some lag ->
            Rt.combinational_period (Rt.retime g ~lag) <= period)
        (List.init (max 0 (upper - 1)) (fun i -> i + 1)))

let () =
  Alcotest.run "retime"
    [
      ( "seq-graph",
        [
          Alcotest.test_case "combinational loop" `Quick
            test_combinational_loop_detected;
          Alcotest.test_case "slice" `Quick test_combinational_slice;
          Alcotest.test_case "retime legality" `Quick test_retime_legality;
          Alcotest.test_case "bad lag" `Quick test_retime_bad_lag_size;
        ] );
      ( "workloads",
        [ Alcotest.test_case "shapes" `Quick test_workload_shapes ] );
      ( "retimer",
        [
          Alcotest.test_case "ring min period" `Quick test_min_period_ring;
          Alcotest.test_case "pipeline min period" `Quick
            test_min_period_pipeline;
          Alcotest.test_case "infeasible target" `Quick test_feas_infeasible;
          Alcotest.test_case "never regresses" `Quick
            test_constrained_never_regresses;
          Alcotest.test_case "resources respected" `Quick
            test_constrained_respects_resources;
          Alcotest.test_case "pinned bench workloads" `Quick
            test_constrained_pinned;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_retiming_conserves_cycle_registers; prop_feas_meets_target ]
      );
    ]
