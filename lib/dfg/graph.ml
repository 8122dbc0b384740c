type vertex = int

type mutation =
  | Added_vertex of vertex
  | Added_edge of vertex * vertex
  | Removed_edge of vertex * vertex
  | Changed_delay of vertex

type node = {
  op : Op.t;
  mutable delay : int;
  name : string;
  preds : vertex Vec.t; (* operand order; may repeat a vertex after merges *)
  succs : vertex Vec.t; (* insertion order; duplicate-free *)
}

type t = {
  nodes : node Vec.t;
  mutable n_edges : int;
  journal : mutation Vec.t;
}

let dummy_vec : vertex Vec.t = Vec.create ~capacity:1 ~dummy:(-1) ()

let dummy_node =
  { op = Op.Const 0; delay = 0; name = ""; preds = dummy_vec; succs = dummy_vec }

let dummy_mutation = Added_vertex (-1)

let create () =
  {
    nodes = Vec.create ~dummy:dummy_node ();
    n_edges = 0;
    journal = Vec.create ~dummy:dummy_mutation ();
  }

let n_vertices g = Vec.length g.nodes
let n_edges g = g.n_edges
let generation g = Vec.length g.journal

let mutations_since g gen =
  let n = Vec.length g.journal in
  if gen < 0 || gen > n then
    invalid_arg
      (Printf.sprintf "Graph.mutations_since: generation %d not in [0,%d]" gen n);
  let rec loop i acc =
    if i < gen then acc else loop (i - 1) (Vec.get g.journal i :: acc)
  in
  loop (n - 1) []

let node g v =
  if v < 0 || v >= n_vertices g then
    invalid_arg (Printf.sprintf "Graph: unknown vertex %d" v);
  Vec.get g.nodes v

let add_vertex g ?delay ?name op =
  let delay = match delay with Some d -> d | None -> Delay.of_op op in
  if delay < 0 then invalid_arg "Graph.add_vertex: negative delay";
  let id = Vec.length g.nodes in
  let name = match name with Some n -> n | None -> Printf.sprintf "v%d" id in
  let _index =
    Vec.push g.nodes
      {
        op;
        delay;
        name;
        preds = Vec.create ~capacity:2 ~dummy:(-1) ();
        succs = Vec.create ~capacity:2 ~dummy:(-1) ();
      }
  in
  ignore (Vec.push g.journal (Added_vertex id));
  id

(* Int-specialised membership; [Vec.mem] would compare polymorphically. *)
let vec_mem_int (vec : vertex Vec.t) (x : vertex) =
  let n = Vec.length vec in
  let rec loop i = i < n && (Vec.get vec i = x || loop (i + 1)) in
  loop 0

(* The edge u -> v exists iff [v] is among the successors of [u],
   equivalently [u] among the operands of [v]; the shorter of the two
   lists is scanned, O(min(out(u), in(v))), which on dataflow graphs is
   a few words (fan-in is the op's arity). *)
let has_edge nu u nv v =
  if Vec.length nu.succs <= Vec.length nv.preds then vec_mem_int nu.succs v
  else vec_mem_int nv.preds u

let mem_edge g u v =
  let nu = node g u in
  v >= 0 && v < n_vertices g && has_edge nu u (Vec.get g.nodes v) v

let add_edge g u v =
  if u = v then invalid_arg "Graph.add_edge: self loop";
  let nu = node g u and nv = node g v in
  if not (has_edge nu u nv v) then begin
    ignore (Vec.push nu.succs v);
    ignore (Vec.push nv.preds u);
    ignore (Vec.push g.journal (Added_edge (u, v)));
    g.n_edges <- g.n_edges + 1
  end

(* In-place order-preserving removal of every occurrence of [x]. *)
let vec_remove_all vec x =
  let n = Vec.length vec in
  let j = ref 0 in
  for i = 0 to n - 1 do
    let y = Vec.get vec i in
    if y <> x then begin
      if !j <> i then Vec.set vec !j y;
      incr j
    end
  done;
  for _ = !j to n - 1 do
    ignore (Vec.pop vec)
  done

let remove_edge g u v =
  let nu = node g u and nv = node g v in
  if not (has_edge nu u nv v) then
    invalid_arg (Printf.sprintf "Graph.remove_edge: no edge %d -> %d" u v);
  ignore (Vec.remove_first nu.succs v);
  (* The edge is gone entirely, so every operand slot reading [u] goes
     with it (they can only repeat after a {!replace_operand} merge). *)
  vec_remove_all nv.preds u;
  ignore (Vec.push g.journal (Removed_edge (u, v)));
  g.n_edges <- g.n_edges - 1

let replace_operand g v ~old_pred ~new_pred =
  let nv = node g v in
  if not (vec_mem_int nv.preds old_pred) then
    invalid_arg
      (Printf.sprintf "Graph.replace_operand: %d does not feed %d" old_pred v);
  let n_old = node g old_pred and n_new = node g new_pred in
  if old_pred = new_pred then () (* rewiring a slot to itself: no-op *)
  else begin
    let had_new = has_edge n_new new_pred nv v in
    (* Replace the first operand slot reading [old_pred]. *)
    let replaced = ref false in
    Vec.iteri
      (fun i p ->
        if p = old_pred && not !replaced then begin
          replaced := true;
          Vec.set nv.preds i new_pred
        end)
      nv.preds;
    (* Drop the old edge only if no other operand slot still reads
       [old_pred]; a blanket removal would break the succs/preds
       invariant when operands were previously merged. *)
    if not (vec_mem_int nv.preds old_pred) then begin
      ignore (Vec.remove_first n_old.succs v);
      ignore (Vec.push g.journal (Removed_edge (old_pred, v)));
      g.n_edges <- g.n_edges - 1
    end;
    if not had_new then begin
      ignore (Vec.push n_new.succs v);
      ignore (Vec.push g.journal (Added_edge (new_pred, v)));
      g.n_edges <- g.n_edges + 1
    end
  end

let op g v = (node g v).op
let delay g v = (node g v).delay
let set_delay g v d =
  if d < 0 then invalid_arg "Graph.set_delay: negative delay";
  (node g v).delay <- d;
  ignore (Vec.push g.journal (Changed_delay v))

let name g v = (node g v).name
let preds g v = Vec.to_list (node g v).preds
let succs g v = Vec.to_list (node g v).succs
let in_degree g v = Vec.length (node g v).preds
let out_degree g v = Vec.length (node g v).succs

let iter_preds f g v = Vec.iter f (node g v).preds
let iter_succs f g v = Vec.iter f (node g v).succs
let fold_preds f acc g v = Vec.fold_left f acc (node g v).preds
let fold_succs f acc g v = Vec.fold_left f acc (node g v).succs
let exists_succ p g v = Vec.exists p (node g v).succs
let exists_pred p g v = Vec.exists p (node g v).preds

let vertices g = List.init (n_vertices g) Fun.id

let iter_vertices f g =
  for v = 0 to n_vertices g - 1 do
    f v
  done

let fold_vertices f acc g =
  let acc = ref acc in
  iter_vertices (fun v -> acc := f !acc v) g;
  !acc

let iter_edges f g = iter_vertices (fun u -> iter_succs (f u) g u) g

let edges g =
  List.rev
    (fold_vertices
       (fun acc u -> fold_succs (fun acc v -> (u, v) :: acc) acc g u)
       [] g)

let sources g = List.filter (fun v -> in_degree g v = 0) (vertices g)
let sinks g = List.filter (fun v -> out_degree g v = 0) (vertices g)

(* Kahn's algorithm; a graph is a DAG iff every vertex gets popped. *)
let is_dag g =
  let n = n_vertices g in
  let indeg = Array.make n 0 in
  iter_edges (fun _ v -> indeg.(v) <- indeg.(v) + 1) g;
  let queue = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v queue) indeg;
  let popped = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    incr popped;
    iter_succs
      (fun v ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then Queue.add v queue)
      g u
  done;
  !popped = n

let copy g =
  let nodes = Vec.create ~capacity:(max 1 (n_vertices g)) ~dummy:dummy_node () in
  Vec.iter
    (fun n ->
      ignore
        (Vec.push nodes
           { op = n.op; delay = n.delay; name = n.name;
             preds = Vec.copy n.preds; succs = Vec.copy n.succs }))
    g.nodes;
  {
    nodes;
    n_edges = g.n_edges;
    journal = Vec.copy g.journal;
  }

let total_delay g = fold_vertices (fun acc v -> acc + delay g v) 0 g

let pp fmt g =
  Format.fprintf fmt "@[<v>graph: %d vertices, %d edges" (n_vertices g)
    (n_edges g);
  iter_vertices
    (fun v ->
      Format.fprintf fmt "@,  %s [%a, d=%d] -> %s" (name g v) Op.pp (op g v)
        (delay g v)
        (String.concat ", " (List.map (name g) (succs g v))))
    g;
  Format.fprintf fmt "@]"
