(* Unit and property tests for the dfg substrate. *)

module Graph = Dfg.Graph
module Op = Dfg.Op
module Topo = Dfg.Topo
module Paths = Dfg.Paths
module Reach = Dfg.Reach
module Vec = Dfg.Vec
module Generate = Dfg.Generate
module Mutate = Dfg.Mutate
module Eval = Dfg.Eval
module Delay = Dfg.Delay

let check = Alcotest.check
let intl = Alcotest.(list int)

(* A reusable diamond: a -> b, a -> c, b -> d, c -> d. *)
let diamond () =
  let g = Graph.create () in
  let a = Graph.add_vertex g ~name:"a" Op.Add in
  let b = Graph.add_vertex g ~name:"b" Op.Mul in
  let c = Graph.add_vertex g ~name:"c" Op.Sub in
  let d = Graph.add_vertex g ~name:"d" Op.Add in
  Graph.add_edge g a b;
  Graph.add_edge g a c;
  Graph.add_edge g b d;
  Graph.add_edge g c d;
  (g, a, b, c, d)

(* --- Vec ----------------------------------------------------------- *)

let test_vec_push_get () =
  let v = Vec.create ~dummy:0 () in
  for i = 0 to 99 do
    check Alcotest.int "index" i (Vec.push v (i * 2))
  done;
  check Alcotest.int "length" 100 (Vec.length v);
  check Alcotest.int "get 41" 82 (Vec.get v 41);
  Vec.set v 41 7;
  check Alcotest.int "set" 7 (Vec.get v 41)

let test_vec_pop_clear () =
  let v = Vec.of_list ~dummy:0 [ 1; 2; 3 ] in
  check Alcotest.int "pop" 3 (Vec.pop v);
  check intl "after pop" [ 1; 2 ] (Vec.to_list v);
  Vec.clear v;
  check Alcotest.int "cleared" 0 (Vec.length v);
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty")
    (fun () -> ignore (Vec.pop v))

let test_vec_bounds () =
  let v = Vec.of_list ~dummy:0 [ 1 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index 1 out of bounds [0,1)")
    (fun () -> ignore (Vec.get v 1));
  Alcotest.check_raises "negative" (Invalid_argument "Vec: index -1 out of bounds [0,1)")
    (fun () -> ignore (Vec.get v (-1)))

let test_vec_iterators () =
  let v = Vec.of_list ~dummy:0 [ 1; 2; 3; 4 ] in
  check Alcotest.int "fold" 10 (Vec.fold_left ( + ) 0 v);
  check Alcotest.bool "exists" true (Vec.exists (fun x -> x = 3) v);
  check Alcotest.bool "for_all" true (Vec.for_all (fun x -> x > 0) v);
  let copy = Vec.copy v in
  Vec.set copy 0 99;
  check Alcotest.int "copy is deep" 1 (Vec.get v 0)

let test_vec_remove_first () =
  let v = Vec.of_list ~dummy:0 [ 1; 2; 3; 2; 4 ] in
  check Alcotest.bool "mem" true (Vec.mem 2 v);
  check Alcotest.bool "removed" true (Vec.remove_first v 2);
  check intl "only first occurrence, order kept" [ 1; 3; 2; 4 ]
    (Vec.to_list v);
  check Alcotest.bool "absent" false (Vec.remove_first v 99);
  check intl "unchanged on miss" [ 1; 3; 2; 4 ] (Vec.to_list v);
  check Alcotest.bool "removed last occurrence" true (Vec.remove_first v 4);
  check Alcotest.bool "4 gone" false (Vec.mem 4 v)

(* --- Op ------------------------------------------------------------ *)

let test_op_of_string_roundtrip () =
  List.iter
    (fun op ->
      check Alcotest.bool (Op.to_string op) true
        (Op.of_string (Op.to_string op) = Some op))
    [ Op.Add; Op.Sub; Op.Mul; Op.Div; Op.Neg; Op.Lt; Op.Gt; Op.Eq; Op.And;
      Op.Or; Op.Xor; Op.Shl; Op.Shr; Op.Mac; Op.Msu; Op.Select; Op.Mov;
      Op.Load; Op.Store; Op.Wire; Op.Const 42; Op.Const (-7);
      Op.Input "x"; Op.Output "yz" ];
  check Alcotest.bool "junk rejected" true (Op.of_string "banana" = None);
  check Alcotest.bool "bad const rejected" true
    (Op.of_string "const(xyz)" = None)

let test_op_arity () =
  check Alcotest.int "const" 0 (Op.arity (Op.Const 5));
  check Alcotest.int "input" 0 (Op.arity (Op.Input "x"));
  check Alcotest.int "neg" 1 (Op.arity Op.Neg);
  check Alcotest.int "add" 2 (Op.arity Op.Add);
  check Alcotest.int "select" 3 (Op.arity Op.Select)

let test_op_eval () =
  check Alcotest.int "add" 7 (Op.eval Op.Add [ 3; 4 ]);
  check Alcotest.int "sub" (-1) (Op.eval Op.Sub [ 3; 4 ]);
  check Alcotest.int "mul" 12 (Op.eval Op.Mul [ 3; 4 ]);
  check Alcotest.int "div" 2 (Op.eval Op.Div [ 9; 4 ]);
  check Alcotest.int "div0" 0 (Op.eval Op.Div [ 9; 0 ]);
  check Alcotest.int "lt true" 1 (Op.eval Op.Lt [ 3; 4 ]);
  check Alcotest.int "lt false" 0 (Op.eval Op.Lt [ 4; 3 ]);
  check Alcotest.int "select t" 5 (Op.eval Op.Select [ 1; 5; 6 ]);
  check Alcotest.int "select f" 6 (Op.eval Op.Select [ 0; 5; 6 ]);
  check Alcotest.int "mov" 9 (Op.eval Op.Mov [ 9 ]);
  check Alcotest.int "mac" 23 (Op.eval Op.Mac [ 4; 5; 3 ]);
  check Alcotest.int "msu" (-17) (Op.eval Op.Msu [ 4; 5; 3 ]);
  check Alcotest.int "const" 3 (Op.eval (Op.Const 3) [])

let test_op_eval_arity_mismatch () =
  Alcotest.check_raises "add/1"
    (Invalid_argument "Op.eval: add applied to 1 arguments") (fun () ->
      ignore (Op.eval Op.Add [ 1 ]))

let test_op_equal () =
  check Alcotest.bool "const eq" true (Op.equal (Op.Const 3) (Op.Const 3));
  check Alcotest.bool "const ne" false (Op.equal (Op.Const 3) (Op.Const 4));
  check Alcotest.bool "input" true (Op.equal (Op.Input "x") (Op.Input "x"));
  check Alcotest.bool "mixed" false (Op.equal Op.Add Op.Sub)

let test_op_commutative () =
  check Alcotest.bool "add" true (Op.is_commutative Op.Add);
  check Alcotest.bool "sub" false (Op.is_commutative Op.Sub);
  check Alcotest.bool "select" false (Op.is_commutative Op.Select)

(* --- Delay --------------------------------------------------------- *)

let test_delay_model () =
  check Alcotest.int "mul" 2 (Delay.of_op Op.Mul);
  check Alcotest.int "add" 1 (Delay.of_op Op.Add);
  check Alcotest.int "input" 0 (Delay.of_op (Op.Input "x"));
  check Alcotest.int "unit mul" 1 (Delay.unit_delay Op.Mul);
  check Alcotest.int "unit out" 0 (Delay.unit_delay (Op.Output "y"))

(* --- Graph --------------------------------------------------------- *)

let test_graph_construction () =
  let g, a, b, _c, d = diamond () in
  check Alcotest.int "n_vertices" 4 (Graph.n_vertices g);
  check Alcotest.int "n_edges" 4 (Graph.n_edges g);
  check Alcotest.bool "mem_edge" true (Graph.mem_edge g a b);
  check Alcotest.bool "not mem" false (Graph.mem_edge g a d);
  check intl "preds d" [ b; 2 ] (Graph.preds g d);
  check intl "succs a" [ b; 2 ] (Graph.succs g a);
  check intl "sources" [ a ] (Graph.sources g);
  check intl "sinks" [ d ] (Graph.sinks g);
  check Alcotest.string "name" "a" (Graph.name g a)

let test_graph_duplicate_edge_ignored () =
  let g, a, b, _, _ = diamond () in
  Graph.add_edge g a b;
  check Alcotest.int "edges unchanged" 4 (Graph.n_edges g);
  check intl "preds b" [ a ] (Graph.preds g b)

let test_graph_self_loop_rejected () =
  let g, a, _, _, _ = diamond () in
  Alcotest.check_raises "self loop"
    (Invalid_argument "Graph.add_edge: self loop") (fun () ->
      Graph.add_edge g a a)

let test_graph_unknown_vertex () =
  let g, a, _, _, _ = diamond () in
  Alcotest.check_raises "unknown"
    (Invalid_argument "Graph: unknown vertex 99") (fun () ->
      Graph.add_edge g a 99)

let test_graph_remove_edge () =
  let g, a, b, _, _ = diamond () in
  Graph.remove_edge g a b;
  check Alcotest.bool "gone" false (Graph.mem_edge g a b);
  check Alcotest.int "count" 3 (Graph.n_edges g);
  Alcotest.check_raises "absent"
    (Invalid_argument "Graph.remove_edge: no edge 0 -> 1") (fun () ->
      Graph.remove_edge g a b)

let test_graph_replace_operand () =
  let g, a, b, c, d = diamond () in
  (* Rewire d's first operand (b) to come from a. *)
  Graph.replace_operand g d ~old_pred:b ~new_pred:a;
  check intl "preds d" [ a; c ] (Graph.preds g d);
  check Alcotest.bool "a->d now" true (Graph.mem_edge g a d);
  check Alcotest.bool "b->d gone" false (Graph.mem_edge g b d)

(* The n_edges decrement branch: rewiring an operand onto a vertex that
   already feeds the target merges two edges into one. *)
let test_graph_replace_operand_merge () =
  let g, _, b, c, d = diamond () in
  Graph.replace_operand g d ~old_pred:b ~new_pred:c;
  check intl "preds d merge" [ c; c ] (Graph.preds g d);
  check Alcotest.bool "b->d gone" false (Graph.mem_edge g b d);
  check Alcotest.bool "c->d kept" true (Graph.mem_edge g c d);
  check Alcotest.int "edge count decremented" 3 (Graph.n_edges g);
  check Alcotest.int "operand slots still 2" 2 (Graph.in_degree g d);
  check Alcotest.int "c out-degree deduplicated" 1 (Graph.out_degree g c)

(* After a merge the old_pred may still feed the target through another
   operand slot: the shared edge must survive and accounting stay
   exact. *)
let test_graph_replace_operand_duplicate_old () =
  let g, a, b, c, d = diamond () in
  Graph.replace_operand g d ~old_pred:b ~new_pred:c;
  (* preds d = [c; c]; split one slot back out to a *)
  Graph.replace_operand g d ~old_pred:c ~new_pred:a;
  check intl "preds d split" [ a; c ] (Graph.preds g d);
  check Alcotest.bool "c->d survives the split" true (Graph.mem_edge g c d);
  check Alcotest.bool "a->d added" true (Graph.mem_edge g a d);
  check Alcotest.int "edge count restored" 4 (Graph.n_edges g)

(* Rewiring a slot to the vertex it already reads is a complete no-op:
   no edge churn, no succs reordering, no journal growth. *)
let test_graph_replace_operand_self () =
  let g, _, b, _, d = diamond () in
  let gen = Graph.generation g in
  let succs_before = Graph.succs g b in
  Graph.replace_operand g d ~old_pred:b ~new_pred:b;
  check intl "succs b unchanged" succs_before (Graph.succs g b);
  check Alcotest.int "edge count unchanged" 4 (Graph.n_edges g);
  check Alcotest.int "generation unchanged" gen (Graph.generation g)

let test_graph_generation_journal () =
  let g = Graph.create () in
  check Alcotest.int "fresh graph at generation 0" 0 (Graph.generation g);
  let a = Graph.add_vertex g Op.Add in
  let b = Graph.add_vertex g Op.Mul in
  Graph.add_edge g a b;
  Graph.add_edge g a b (* duplicate: ignored, not journalled *);
  check Alcotest.int "three mutations" 3 (Graph.generation g);
  let mid = Graph.generation g in
  let c = Graph.add_vertex g Op.Sub in
  Graph.add_edge g b c;
  Graph.remove_edge g a b;
  check Alcotest.bool "journal suffix in order" true
    (Graph.mutations_since g mid
    = [ Graph.Added_vertex c; Graph.Added_edge (b, c);
        Graph.Removed_edge (a, b) ]);
  check Alcotest.bool "caught-up suffix empty" true
    (Graph.mutations_since g (Graph.generation g) = []);
  Alcotest.check_raises "future generation rejected"
    (Invalid_argument "Graph.mutations_since: generation 99 not in [0,6]")
    (fun () -> ignore (Graph.mutations_since g 99))

let test_graph_is_dag () =
  let g, _, _, _, _ = diamond () in
  check Alcotest.bool "dag" true (Graph.is_dag g)

let test_graph_delay_accessors () =
  let g = Graph.create () in
  let m = Graph.add_vertex g Op.Mul in
  check Alcotest.int "default mul delay" 2 (Graph.delay g m);
  Graph.set_delay g m 5;
  check Alcotest.int "updated" 5 (Graph.delay g m);
  Alcotest.check_raises "negative"
    (Invalid_argument "Graph.set_delay: negative delay") (fun () ->
      Graph.set_delay g m (-1))

let test_graph_copy_independent () =
  let g, a, b, _, _ = diamond () in
  let g2 = Graph.copy g in
  Graph.remove_edge g a b;
  check Alcotest.bool "copy unaffected" true (Graph.mem_edge g2 a b);
  check Alcotest.int "copy count" 4 (Graph.n_edges g2)

let test_graph_total_delay () =
  let g, _, _, _, _ = diamond () in
  (* add(1) + mul(2) + sub(1) + add(1) *)
  check Alcotest.int "total" 5 (Graph.total_delay g)

(* --- Topo ---------------------------------------------------------- *)

let test_topo_sort () =
  let g, _, _, _, _ = diamond () in
  let order = Topo.sort g in
  check Alcotest.bool "topological" true (Topo.is_topological g order)

let test_topo_sort_by () =
  let g, a, b, c, d = diamond () in
  (* Prefer larger ids among ready vertices. *)
  let order = Topo.sort_by g ~compare:(fun x y -> compare y x) in
  check intl "order" [ a; c; b; d ] order;
  check Alcotest.bool "topological" true (Topo.is_topological g order)

let test_topo_dfs () =
  let g, a, b, c, d = diamond () in
  check intl "preorder" [ a; b; d; c ] (Topo.dfs_preorder g);
  check intl "rpo" [ a; c; b; d ] (Topo.reverse_postorder g);
  check Alcotest.bool "rpo is topological" true
    (Topo.is_topological g (Topo.reverse_postorder g))

let test_topo_is_topological_rejects () =
  let g, a, b, c, d = diamond () in
  check Alcotest.bool "reversed" false (Topo.is_topological g [ d; c; b; a ]);
  check Alcotest.bool "short" false (Topo.is_topological g [ a; b ]);
  check Alcotest.bool "dup" false (Topo.is_topological g [ a; a; b; d ])

(* --- Paths --------------------------------------------------------- *)

let test_paths_distances () =
  let g, a, b, c, d = diamond () in
  (* delays: a=1 b=2 c=1 d=1 *)
  let sdist = Paths.source_distances g in
  check Alcotest.int "sdist a" 1 sdist.(a);
  check Alcotest.int "sdist b" 3 sdist.(b);
  check Alcotest.int "sdist c" 2 sdist.(c);
  check Alcotest.int "sdist d" 4 sdist.(d);
  let tdist = Paths.sink_distances g in
  check Alcotest.int "tdist a" 4 tdist.(a);
  check Alcotest.int "tdist b" 3 tdist.(b);
  check Alcotest.int "tdist d" 1 tdist.(d);
  check Alcotest.int "diameter" 4 (Paths.diameter g);
  check Alcotest.int "through b" 4 (Paths.distance_through g b);
  check Alcotest.int "through c" 3 (Paths.distance_through g c)

let test_paths_critical () =
  let g, a, b, _, d = diamond () in
  check intl "critical path" [ a; b; d ] (Paths.critical_path g)

let test_paths_asap_alap () =
  let g, a, b, c, d = diamond () in
  let asap = Paths.asap_starts g in
  check Alcotest.int "asap a" 0 asap.(a);
  check Alcotest.int "asap d" 3 asap.(d);
  let alap = Paths.alap_starts g ~deadline:4 in
  check Alcotest.int "alap a" 0 alap.(a);
  check Alcotest.int "alap c" 2 alap.(c);
  let slack = Paths.slack g ~deadline:4 in
  check Alcotest.int "slack b" 0 slack.(b);
  check Alcotest.int "slack c" 1 slack.(c);
  Alcotest.check_raises "tight deadline"
    (Invalid_argument "Paths.alap_starts: deadline 3 < diameter 4") (fun () ->
      ignore (Paths.alap_starts g ~deadline:3))

let test_paths_empty () =
  let g = Graph.create () in
  check Alcotest.int "empty diameter" 0 (Paths.diameter g);
  check intl "empty critical" [] (Paths.critical_path g)

(* --- Reach --------------------------------------------------------- *)

let test_reach_basic () =
  let g, a, b, c, d = diamond () in
  let r = Reach.of_graph g in
  check Alcotest.bool "a<d" true (Reach.precedes r a d);
  check Alcotest.bool "b<c" false (Reach.precedes r b c);
  check Alcotest.bool "strict" false (Reach.precedes r a a);
  check Alcotest.bool "preceq refl" true (Reach.preceq r a a);
  check Alcotest.bool "comparable" true (Reach.comparable r d a);
  check intl "descendants a" [ b; c; d ] (Reach.descendants r a);
  check intl "ancestors d" [ a; b; c ] (Reach.ancestors r d);
  (* pairs: a<b a<c a<d b<d c<d *)
  check Alcotest.int "count" 5 (Reach.count_pairs r)

let reach_matches_bruteforce n seed =
  let rng = Random.State.make [| seed |] in
  let g = Generate.random_dag rng ~n ~edge_prob:0.2 in
  let r = Reach.of_graph g in
  let reachable_dfs u v =
    let visited = Array.make n false in
    let rec go w =
      List.exists (fun s -> s = v || ((not visited.(s)) && (visited.(s) <- true; go s)))
        (Graph.succs g w)
    in
    go u
  in
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Reach.precedes r u v <> reachable_dfs u v then ok := false
    done
  done;
  !ok

let test_reach_vs_bruteforce () =
  for seed = 1 to 10 do
    check Alcotest.bool
      (Printf.sprintf "seed %d" seed)
      true
      (reach_matches_bruteforce 30 seed)
  done

(* --- Generate ------------------------------------------------------ *)

let test_generate_shapes () =
  let rng = Random.State.make [| 42 |] in
  let g = Generate.random_dag rng ~n:50 ~edge_prob:0.1 in
  check Alcotest.bool "random dag" true (Graph.is_dag g);
  let layered = Generate.layered rng ~layers:5 ~width:4 ~fanin:2 in
  check Alcotest.bool "layered dag" true (Graph.is_dag layered);
  check Alcotest.int "layered size" 20 (Graph.n_vertices layered);
  let chain = Generate.chain ~n:10 in
  check Alcotest.int "chain diameter" 10 (Paths.diameter chain);
  let fj = Generate.fork_join ~width:8 in
  check Alcotest.bool "fork-join dag" true (Graph.is_dag fj);
  let tree = Generate.expression_tree rng ~depth:4 in
  check Alcotest.bool "tree dag" true (Graph.is_dag tree);
  check Alcotest.int "tree leaves+ops" 31 (Graph.n_vertices tree);
  let sp = Generate.series_parallel rng ~size:30 in
  check Alcotest.bool "series-parallel dag" true (Graph.is_dag sp);
  check Alcotest.int "series-parallel size" 30 (Graph.n_vertices sp)

let test_generate_layered_fanin () =
  let rng = Random.State.make [| 7 |] in
  let g = Generate.layered rng ~layers:4 ~width:5 ~fanin:3 in
  Graph.iter_vertices
    (fun v ->
      let d = Graph.in_degree g v in
      if v >= 5 then check Alcotest.int (Printf.sprintf "fanin v%d" v) 3 d)
    g

(* --- Mutate -------------------------------------------------------- *)

let test_mutate_insert_on_edge () =
  let g, a, b, _, _ = diamond () in
  let w = Mutate.insert_on_edge g ~src:a ~dst:b ~op:Op.Wire ~delay:2 () in
  check Alcotest.bool "a->w" true (Graph.mem_edge g a w);
  check Alcotest.bool "w->b" true (Graph.mem_edge g w b);
  check Alcotest.bool "a->b gone" false (Graph.mem_edge g a b);
  check Alcotest.bool "still dag" true (Graph.is_dag g);
  check Alcotest.int "delay" 2 (Graph.delay g w);
  Alcotest.check_raises "absent edge"
    (Invalid_argument "Mutate.insert_on_edge: no edge 0 -> 1") (fun () ->
      ignore (Mutate.insert_on_edge g ~src:a ~dst:b ~op:Op.Wire ()))

let evaluable_graph () =
  let g = Graph.create () in
  let x = Graph.add_vertex g ~name:"x" (Op.Input "x") in
  let y = Graph.add_vertex g ~name:"y" (Op.Input "y") in
  let s = Graph.add_vertex g ~name:"s" Op.Add in
  Graph.add_edge g x s;
  Graph.add_edge g y s;
  let m = Graph.add_vertex g ~name:"m" Op.Mul in
  Graph.add_edge g s m;
  Graph.add_edge g y m;
  let o = Graph.add_vertex g ~name:"o" (Op.Output "o") in
  Graph.add_edge g m o;
  (g, s, m)

let test_mutate_wire_preserves_eval () =
  let g, s, m = evaluable_graph () in
  let env = [ ("x", 3); ("y", 4) ] in
  let before = Eval.outputs g env in
  let _w = Mutate.insert_on_edge g ~src:s ~dst:m ~op:Op.Wire ~delay:1 () in
  check
    Alcotest.(list (pair string int))
    "outputs preserved" before (Eval.outputs g env)

let test_mutate_spill_preserves_eval () =
  let g, s, m = evaluable_graph () in
  let env = [ ("x", 3); ("y", 4) ] in
  let before = Eval.outputs g env in
  let st, ld = Mutate.insert_spill g ~value:s ~reload_for:[ m ] in
  check Alcotest.bool "dag" true (Graph.is_dag g);
  check Alcotest.bool "s->st" true (Graph.mem_edge g s st);
  check Alcotest.bool "st->ld" true (Graph.mem_edge g st ld);
  check Alcotest.bool "ld->m" true (Graph.mem_edge g ld m);
  check Alcotest.bool "s->m gone" false (Graph.mem_edge g s m);
  check
    Alcotest.(list (pair string int))
    "outputs preserved" before (Eval.outputs g env)

let test_mutate_spill_bad_consumer () =
  let g, s, _ = evaluable_graph () in
  Alcotest.check_raises "not a consumer"
    (Invalid_argument "Mutate.insert_spill: 0 is not a consumer of 2")
    (fun () -> ignore (Mutate.insert_spill g ~value:s ~reload_for:[ 0 ]))

(* --- Eval ---------------------------------------------------------- *)

let test_eval_run () =
  let g, _, _ = evaluable_graph () in
  let values = Eval.run g [ ("x", 3); ("y", 4) ] in
  check Alcotest.int "sum" 7 values.(2);
  check Alcotest.int "mul" 28 values.(3);
  check
    Alcotest.(list (pair string int))
    "outputs" [ ("o", 28) ]
    (Eval.outputs g [ ("x", 3); ("y", 4) ])

let test_eval_missing_input () =
  let g, _, _ = evaluable_graph () in
  Alcotest.check_raises "missing" Not_found (fun () ->
      ignore (Eval.run g [ ("x", 3) ]))

(* --- Dot ----------------------------------------------------------- *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_dot_output () =
  let g, _, _, _, _ = diamond () in
  let dot = Dfg.Dot.of_graph ~highlight:(Paths.critical_path g) g in
  check Alcotest.bool "digraph" true (contains ~needle:"digraph G {" dot);
  check Alcotest.bool "edge" true (contains ~needle:"n0 -> n1;" dot);
  check Alcotest.bool "highlight" true (contains ~needle:"fillcolor" dot);
  let sched = Dfg.Dot.of_schedule g ~starts:[| 0; 1; 1; 3 |] in
  check Alcotest.bool "clusters" true (contains ~needle:"cluster_0" sched)

(* --- Serial -------------------------------------------------------- *)

let graphs_isomorphic a b =
  (* same names, ops, delays, and name-level edges *)
  let summary g =
    ( List.sort compare
        (List.map
           (fun v -> (Graph.name g v, Op.to_string (Graph.op g v), Graph.delay g v))
           (Graph.vertices g)),
      List.sort compare
        (List.map (fun (u, v) -> (Graph.name g u, Graph.name g v))
           (Graph.edges g)) )
  in
  summary a = summary b

let test_serial_roundtrip () =
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      let g = e.build () in
      let back = Dfg.Serial.of_string (Dfg.Serial.to_string g) in
      check Alcotest.bool (e.name ^ " roundtrip") true
        (graphs_isomorphic g back))
    Hls_bench.Suite.all

let test_serial_parse () =
  let g =
    Dfg.Serial.of_string
      "# demo\nvertex x in(x) 0\nvertex m mul\nvertex y out(y) 0\n\
       edge x m\nedge m y\n"
  in
  check Alcotest.int "vertices" 3 (Graph.n_vertices g);
  check Alcotest.int "default delay" 2
    (Graph.delay g
       (List.find (fun v -> Graph.name g v = "m") (Graph.vertices g)))

let expect_serial_error text fragment =
  try
    ignore (Dfg.Serial.of_string text);
    Alcotest.failf "expected parse error on %S" text
  with Dfg.Serial.Parse_error m ->
    check Alcotest.bool
      (Printf.sprintf "%S mentions %S" m fragment)
      true
      (let nl = String.length fragment and hl = String.length m in
       let rec go i = i + nl <= hl && (String.sub m i nl = fragment || go (i + 1)) in
       go 0)

let test_serial_errors () =
  expect_serial_error "vertex a banana 1" "unknown op";
  expect_serial_error "vertex a add 1\nvertex a add 1" "duplicate";
  expect_serial_error "edge a b" "undeclared";
  expect_serial_error "vertex a add -2" "negative delay";
  expect_serial_error "frobnicate" "unknown directive"

let test_serial_eval_preserved () =
  let g, _, _ = evaluable_graph () in
  let back = Dfg.Serial.of_string (Dfg.Serial.to_string g) in
  check
    Alcotest.(list (pair string int))
    "same outputs"
    (Eval.outputs g [ ("x", 3); ("y", 4) ])
    (Eval.outputs back [ ("x", 3); ("y", 4) ])

(* --- Reduce -------------------------------------------------------- *)

let test_reduce_triangle () =
  let g = Graph.create () in
  let a = Graph.add_vertex g Op.Add in
  let b = Graph.add_vertex g Op.Add in
  let c = Graph.add_vertex g Op.Add in
  Graph.add_edge g a b;
  Graph.add_edge g b c;
  Graph.add_edge g a c;
  check
    Alcotest.(list (pair int int))
    "redundant" [ (a, c) ]
    (Dfg.Reduce.redundant_edges g);
  let r = Dfg.Reduce.transitive_reduction g in
  check Alcotest.int "edges" 2 (Graph.n_edges r);
  check Alcotest.bool "reduced" true (Dfg.Reduce.is_reduced r);
  check Alcotest.bool "original not" false (Dfg.Reduce.is_reduced g)

let prop_reduction_preserves_reachability =
  QCheck.Test.make ~name:"transitive reduction preserves reachability"
    ~count:60
    QCheck.(pair (int_range 1 25) (int_range 0 10_000))
    (fun (n, seed) ->
      let g =
        Generate.random_dag (Random.State.make [| seed |]) ~n ~edge_prob:0.3
      in
      let r = Dfg.Reduce.transitive_reduction g in
      let ra = Reach.of_graph g and rb = Reach.of_graph r in
      let ok = ref (Dfg.Reduce.is_reduced r) in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v && Reach.precedes ra u v <> Reach.precedes rb u v then
            ok := false
        done
      done;
      !ok)

(* --- qcheck properties --------------------------------------------- *)

let seeded_dag =
  QCheck.make
    ~print:(fun (n, p, seed) -> Printf.sprintf "n=%d p=%.2f seed=%d" n p seed)
    QCheck.Gen.(
      triple (int_range 1 40)
        (float_range 0.05 0.5)
        (int_range 0 10_000))

let graph_of (n, p, seed) =
  Generate.random_dag (Random.State.make [| seed |]) ~n ~edge_prob:p

let prop_random_is_dag =
  QCheck.Test.make ~name:"generated graphs are DAGs" ~count:100 seeded_dag
    (fun spec -> Graph.is_dag (graph_of spec))

let prop_topo_valid =
  QCheck.Test.make ~name:"Topo.sort yields a topological order" ~count:100
    seeded_dag (fun spec ->
      let g = graph_of spec in
      Topo.is_topological g (Topo.sort g))

let prop_rpo_valid =
  QCheck.Test.make ~name:"reverse postorder is topological" ~count:100
    seeded_dag (fun spec ->
      let g = graph_of spec in
      Topo.is_topological g (Topo.reverse_postorder g))

let prop_diameter_is_max_distance =
  QCheck.Test.make ~name:"diameter = max vertex distance" ~count:100 seeded_dag
    (fun spec ->
      let g = graph_of spec in
      let dia = Paths.diameter g in
      let max_through =
        Graph.fold_vertices
          (fun acc v -> max acc (Paths.distance_through g v))
          0 g
      in
      dia = max_through)

let prop_lemma5 =
  (* Lemma 5: distance v = delay v + max preds' sdist + max succs' tdist *)
  QCheck.Test.make ~name:"Lemma 5 distance decomposition" ~count:100 seeded_dag
    (fun spec ->
      let g = graph_of spec in
      let sdist = Paths.source_distances g and tdist = Paths.sink_distances g in
      Graph.fold_vertices
        (fun acc v ->
          let best_pred =
            List.fold_left (fun m p -> max m sdist.(p)) 0 (Graph.preds g v)
          in
          let best_succ =
            List.fold_left (fun m s -> max m tdist.(s)) 0 (Graph.succs g v)
          in
          acc
          && Paths.distance_through g v
             = Graph.delay g v + best_pred + best_succ)
        true g)

let prop_critical_path_consistent =
  QCheck.Test.make ~name:"critical path sums to the diameter" ~count:100
    seeded_dag (fun spec ->
      let g = graph_of spec in
      if Graph.n_vertices g = 0 then true
      else begin
        let path = Paths.critical_path g in
        let weight = List.fold_left (fun a v -> a + Graph.delay g v) 0 path in
        weight = Paths.diameter g
        && (* consecutive vertices are connected *)
        (let rec chained = function
           | a :: (b :: _ as rest) -> Graph.mem_edge g a b && chained rest
           | _ -> true
         in
         chained path)
      end)

let prop_reach_transitive =
  QCheck.Test.make ~name:"reachability is transitive" ~count:50 seeded_dag
    (fun spec ->
      let g = graph_of spec in
      let r = Reach.of_graph g in
      let n = Graph.n_vertices g in
      let ok = ref true in
      for a = 0 to n - 1 do
        List.iter
          (fun b ->
            List.iter
              (fun c -> if not (Reach.precedes r a c) then ok := false)
              (Reach.descendants r b))
          (Reach.descendants r a)
      done;
      !ok)

(* Growth-trace oracle: replay a random add_vertex/add_edge sequence
   into one incrementally-maintained Reach and assert it matches a
   from-scratch closure after every step. This is the contract
   [Threaded_graph.sync] relies on when it replays the mutation journal
   instead of rebuilding. *)
let prop_incremental_reach_oracle =
  QCheck.Test.make ~name:"incremental Reach = of_graph on growth traces"
    ~count:60
    QCheck.(pair (int_range 2 20) (int_range 0 10_000))
    (fun (n_target, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Graph.create () in
      let r = Reach.of_graph g in
      let agree () =
        let fresh = Reach.of_graph g in
        let n = Graph.n_vertices g in
        Reach.size r = n
        && begin
             let ok = ref true in
             for u = 0 to n - 1 do
               for v = 0 to n - 1 do
                 if
                   u <> v
                   && Reach.precedes r u v <> Reach.precedes fresh u v
                 then ok := false
               done
             done;
             !ok
           end
      in
      let ok = ref true in
      for _ = 1 to n_target do
        ignore (Graph.add_vertex g Op.Add);
        ignore (Reach.add_vertex r);
        if !ok && not (agree ()) then ok := false;
        (* a few random edges, always low id -> high id, so the graph
           stays a DAG without a cycle check *)
        let n = Graph.n_vertices g in
        if n >= 2 then
          for _ = 1 to Random.State.int rng 3 do
            let v = 1 + Random.State.int rng (n - 1) in
            let u = Random.State.int rng v in
            if not (Graph.mem_edge g u v) then begin
              Graph.add_edge g u v;
              Reach.add_edge r u v
            end
            else
              (* redundant closure updates must be harmless *)
              Reach.add_edge r u v;
            if !ok && not (agree ()) then ok := false
          done
      done;
      !ok)

let prop_eval_deterministic =
  QCheck.Test.make ~name:"expression trees evaluate consistently" ~count:50
    QCheck.(pair (int_range 1 5) (int_range 0 1000))
    (fun (depth, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Generate.expression_tree rng ~depth in
      let env =
        List.filter_map
          (fun v ->
            match Graph.op g v with
            | Op.Input name -> Some (name, (Hashtbl.hash name mod 21) - 10)
            | _ -> None)
          (Graph.vertices g)
      in
      Eval.run g env = Eval.run g env)

(* parse(print g) is isomorphic to g: the vertex names carry the
   bijection, so compare op/delay and the predecessor *set* vertexwise
   (plain Serial interleaves edge lines by source, so operand order is
   only preserved per (print, parse) pair, not guaranteed here —
   Serve.Fingerprint.canonical is the operand-order-exact variant). *)
let prop_serial_roundtrip_iso =
  QCheck.Test.make ~name:"Serial round-trip is an isomorphism" ~count:100
    seeded_dag (fun spec ->
      let g = graph_of spec in
      let h = Dfg.Serial.of_string (Dfg.Serial.to_string g) in
      let h_of_name = Hashtbl.create 64 in
      Graph.iter_vertices
        (fun v -> Hashtbl.replace h_of_name (Graph.name h v) v)
        h;
      let sorted_pred_names gr v =
        List.sort compare (List.map (Graph.name gr) (Graph.preds gr v))
      in
      Graph.n_vertices g = Graph.n_vertices h
      && Graph.n_edges g = Graph.n_edges h
      && List.for_all
           (fun v ->
             match Hashtbl.find_opt h_of_name (Graph.name g v) with
             | None -> false
             | Some w ->
               Graph.op g v = Graph.op h w
               && Graph.delay g v = Graph.delay h w
               && sorted_pred_names g v = sorted_pred_names h w)
           (Graph.vertices g))

(* The line-splitting parser [Dfg.Serial.of_string] replaced, kept
   verbatim as the oracle of the one-pass parser: on any document both
   build the same graph or raise the same message. *)
exception Reference_parse_error of string

let reference_of_string text =
  let g = Graph.create () in
  let by_name = Hashtbl.create 32 in
  let fail line msg =
    raise (Reference_parse_error (Printf.sprintf "line %d: %s" line msg))
  in
  let lookup line name =
    match Hashtbl.find_opt by_name name with
    | Some v -> v
    | None -> fail line (Printf.sprintf "undeclared vertex %S" name)
  in
  List.iteri
    (fun index raw ->
      let line = index + 1 in
      let content =
        match String.index_opt raw '#' with
        | Some i -> String.sub raw 0 i
        | None -> raw
      in
      let words =
        List.filter (fun w -> w <> "") (String.split_on_char ' '
          (String.map (fun c -> if c = '\t' then ' ' else c) content))
      in
      match words with
      | [] -> ()
      | "vertex" :: name :: op_text :: rest ->
        if Hashtbl.mem by_name name then
          fail line (Printf.sprintf "duplicate vertex %S" name);
        let op =
          match Op.of_string op_text with
          | Some op -> op
          | None -> fail line (Printf.sprintf "unknown op %S" op_text)
        in
        let delay =
          match rest with
          | [] -> None
          | [ d ] ->
            (match int_of_string_opt d with
            | Some d when d >= 0 -> Some d
            | Some _ -> fail line "negative delay"
            | None -> fail line (Printf.sprintf "bad delay %S" d))
          | _ -> fail line "trailing tokens after delay"
        in
        let v = Graph.add_vertex g ?delay ~name op in
        Hashtbl.replace by_name name v
      | [ "edge"; src; dst ] ->
        let u = lookup line src and v = lookup line dst in
        (try Graph.add_edge g u v
         with Invalid_argument m -> fail line m)
      | word :: _ -> fail line (Printf.sprintf "unknown directive %S" word))
    (String.split_on_char '\n' text);
  g

(* Random .dfg documents, valid and malformed: names come from a small
   pool so duplicates, undeclared names, repeated edges and self loops
   are common; words are separated by runs of ' ' and '\t'; lines may
   carry comments, a trailing '\r' or trailing tokens. *)
let serial_document =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "c"; "d"; "e"; "f"; "x1"; "vertex"; "a\r" ] in
  let op =
    frequency
      [
        (6, oneofl [ "add"; "sub"; "mul"; "lt"; "xor"; "ld"; "wd" ]);
        ( 3,
          oneofl
            [ "const(3)"; "const(-2)"; "in(x)"; "out(y)"; "in(a b)"; "out()" ] );
        (1, oneofl [ "banana"; "const(x)"; "const()"; "in("; "ADD"; "add\r" ]);
      ]
  in
  let delay =
    frequency
      [
        (6, map string_of_int (int_range 0 9));
        ( 2,
          oneofl
            [ "-1"; "x"; "007"; "1\r"; "+3"; "0x2"; "1_0"; "-0";
              "99999999999999999999"; "123456789012345678" ] );
      ]
  in
  let sep = oneofl [ " "; " "; " "; "\t"; "  "; " \t " ] in
  let join words =
    sep >>= fun s0 ->
    let rec go acc = function
      | [] -> return acc
      | [ w ] -> return (acc ^ w)
      | w :: rest -> sep >>= fun s -> go (acc ^ w ^ s) rest
    in
    go "" words >>= fun body ->
    frequency [ (3, return ""); (1, return s0) ] >>= fun lead ->
    return (lead ^ body)
  in
  let line =
    frequency
      [
        (6, map3 (fun n o d -> [ "vertex"; n; o; d ]) name op delay);
        (3, map2 (fun n o -> [ "vertex"; n; o ]) name op);
        (1, map (fun n -> [ "vertex"; n ]) name);
        (1, map3 (fun n o d -> [ "vertex"; n; o; d; "extra" ]) name op delay);
        (8, map2 (fun u v -> [ "edge"; u; v ]) name name);
        (1, map (fun u -> [ "edge"; u ]) name);
        (1, map3 (fun u v w -> [ "edge"; u; v; w ]) name name name);
        (1, return [ "frob"; "a" ]);
        (2, return []);
      ]
    >>= join
    >>= fun body ->
    frequency
      [
        (6, return body);
        (1, return (body ^ "\r"));
        (1, return (body ^ " # note"));
        (1, return (body ^ "#edge a b"));
        (1, return ("# " ^ body));
      ]
  in
  list_size (int_range 0 14) line >>= fun lines ->
  bool >>= fun final_newline ->
  return (String.concat "\n" lines ^ if final_newline then "\n" else "")

(* Everything a parse result exposes: names, ops, delays, operand-ordered
   preds, succ order and the edge count. *)
let graph_dump g =
  ( Graph.n_edges g,
    List.map
      (fun v ->
        ( Graph.name g v,
          Op.to_string (Graph.op g v),
          Graph.delay g v,
          Graph.preds g v,
          Graph.succs g v ))
      (Graph.vertices g) )

let prop_serial_parser_oracle =
  QCheck.Test.make ~name:"one-pass Serial parser matches the line splitter"
    ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") serial_document)
    (fun text ->
      let outcome parse error =
        match parse text with
        | g -> Ok (graph_dump g)
        | exception e -> (
          match error e with Some m -> Error m | None -> raise e)
      in
      let expected =
        outcome reference_of_string (function
          | Reference_parse_error m -> Some m
          | _ -> None)
      and got =
        outcome Dfg.Serial.of_string (function
          | Dfg.Serial.Parse_error m -> Some m
          | _ -> None)
      in
      expected = got)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_random_is_dag;
      prop_topo_valid;
      prop_rpo_valid;
      prop_diameter_is_max_distance;
      prop_lemma5;
      prop_critical_path_consistent;
      prop_reach_transitive;
      prop_incremental_reach_oracle;
      prop_eval_deterministic;
      prop_reduction_preserves_reachability;
      prop_serial_roundtrip_iso;
      prop_serial_parser_oracle;
    ]

let () =
  Alcotest.run "dfg"
    [
      ( "vec",
        [
          Alcotest.test_case "push/get/set" `Quick test_vec_push_get;
          Alcotest.test_case "pop/clear" `Quick test_vec_pop_clear;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "iterators/copy" `Quick test_vec_iterators;
          Alcotest.test_case "mem/remove_first" `Quick test_vec_remove_first;
        ] );
      ( "op",
        [
          Alcotest.test_case "arity" `Quick test_op_arity;
          Alcotest.test_case "of_string roundtrip" `Quick
            test_op_of_string_roundtrip;
          Alcotest.test_case "eval" `Quick test_op_eval;
          Alcotest.test_case "eval arity mismatch" `Quick
            test_op_eval_arity_mismatch;
          Alcotest.test_case "equal" `Quick test_op_equal;
          Alcotest.test_case "commutativity" `Quick test_op_commutative;
        ] );
      ("delay", [ Alcotest.test_case "model" `Quick test_delay_model ]);
      ( "graph",
        [
          Alcotest.test_case "construction" `Quick test_graph_construction;
          Alcotest.test_case "duplicate edge" `Quick
            test_graph_duplicate_edge_ignored;
          Alcotest.test_case "self loop" `Quick test_graph_self_loop_rejected;
          Alcotest.test_case "unknown vertex" `Quick test_graph_unknown_vertex;
          Alcotest.test_case "remove edge" `Quick test_graph_remove_edge;
          Alcotest.test_case "replace operand" `Quick
            test_graph_replace_operand;
          Alcotest.test_case "replace operand merge" `Quick
            test_graph_replace_operand_merge;
          Alcotest.test_case "replace operand duplicate old" `Quick
            test_graph_replace_operand_duplicate_old;
          Alcotest.test_case "replace operand self" `Quick
            test_graph_replace_operand_self;
          Alcotest.test_case "generation/journal" `Quick
            test_graph_generation_journal;
          Alcotest.test_case "is_dag" `Quick test_graph_is_dag;
          Alcotest.test_case "delays" `Quick test_graph_delay_accessors;
          Alcotest.test_case "copy" `Quick test_graph_copy_independent;
          Alcotest.test_case "total delay" `Quick test_graph_total_delay;
        ] );
      ( "topo",
        [
          Alcotest.test_case "sort" `Quick test_topo_sort;
          Alcotest.test_case "sort_by" `Quick test_topo_sort_by;
          Alcotest.test_case "dfs orders" `Quick test_topo_dfs;
          Alcotest.test_case "is_topological rejects" `Quick
            test_topo_is_topological_rejects;
        ] );
      ( "paths",
        [
          Alcotest.test_case "distances" `Quick test_paths_distances;
          Alcotest.test_case "critical path" `Quick test_paths_critical;
          Alcotest.test_case "asap/alap/slack" `Quick test_paths_asap_alap;
          Alcotest.test_case "empty graph" `Quick test_paths_empty;
        ] );
      ( "reach",
        [
          Alcotest.test_case "basics" `Quick test_reach_basic;
          Alcotest.test_case "vs brute force" `Quick test_reach_vs_bruteforce;
        ] );
      ( "generate",
        [
          Alcotest.test_case "shapes" `Quick test_generate_shapes;
          Alcotest.test_case "layered fanin" `Quick test_generate_layered_fanin;
        ] );
      ( "mutate",
        [
          Alcotest.test_case "insert on edge" `Quick test_mutate_insert_on_edge;
          Alcotest.test_case "wire preserves eval" `Quick
            test_mutate_wire_preserves_eval;
          Alcotest.test_case "spill preserves eval" `Quick
            test_mutate_spill_preserves_eval;
          Alcotest.test_case "spill bad consumer" `Quick
            test_mutate_spill_bad_consumer;
        ] );
      ( "eval",
        [
          Alcotest.test_case "run" `Quick test_eval_run;
          Alcotest.test_case "missing input" `Quick test_eval_missing_input;
        ] );
      ("dot", [ Alcotest.test_case "output" `Quick test_dot_output ]);
      ( "serial",
        [
          Alcotest.test_case "roundtrip" `Quick test_serial_roundtrip;
          Alcotest.test_case "parse" `Quick test_serial_parse;
          Alcotest.test_case "errors" `Quick test_serial_errors;
          Alcotest.test_case "eval preserved" `Quick
            test_serial_eval_preserved;
        ] );
      ( "reduce",
        [ Alcotest.test_case "triangle" `Quick test_reduce_triangle ] );
      ("properties", qcheck_cases);
    ]
