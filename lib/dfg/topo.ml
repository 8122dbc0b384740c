let indegrees g =
  let indeg = Array.make (Graph.n_vertices g) 0 in
  Graph.iter_edges (fun _ v -> indeg.(v) <- indeg.(v) + 1) g;
  indeg

(* Kahn with FIFO tie-breaking; the output array doubles as the queue. *)
let order g =
  let n = Graph.n_vertices g in
  let indeg = indegrees g in
  let order = Array.make n 0 in
  let tail = ref 0 in
  Array.iteri
    (fun v d ->
      if d = 0 then begin
        order.(!tail) <- v;
        incr tail
      end)
    indeg;
  let release v =
    indeg.(v) <- indeg.(v) - 1;
    if indeg.(v) = 0 then begin
      order.(!tail) <- v;
      incr tail
    end
  in
  let head = ref 0 in
  while !head < !tail do
    Graph.iter_succs release g order.(!head);
    incr head
  done;
  if !tail <> n then invalid_arg "Topo.sort: graph has a cycle";
  order

let sort g = Array.to_list (order g)

(* Priority-queue Kahn: the ready set is re-scanned for its minimum.
   O(V^2) worst case, fine for scheduling-sized graphs. *)
let sort_by g ~compare:cmp =
  let indeg = indegrees g in
  let ready = ref [] in
  Array.iteri (fun v d -> if d = 0 then ready := v :: !ready) indeg;
  let rec take_min best = function
    | [] -> best
    | v :: rest -> take_min (if cmp v best < 0 then v else best) rest
  in
  let order = ref [] in
  let count = ref 0 in
  while !ready <> [] do
    let u =
      match !ready with
      | [] -> assert false
      | v :: rest -> take_min v rest
    in
    ready := List.filter (fun v -> v <> u) !ready;
    order := u :: !order;
    incr count;
    Graph.iter_succs
      (fun v ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then ready := v :: !ready)
      g u
  done;
  if !count <> Graph.n_vertices g then
    invalid_arg "Topo.sort_by: graph has a cycle";
  List.rev !order

let dfs g ~pre ~post =
  let n = Graph.n_vertices g in
  let visited = Array.make n false in
  let rec visit v =
    if not visited.(v) then begin
      visited.(v) <- true;
      pre v;
      Graph.iter_succs visit g v;
      post v
    end
  in
  List.iter visit (Graph.sources g);
  (* Isolated cycles are impossible in a DAG but disconnected vertices
     whose component has no local source are; sweep the remainder. *)
  for v = 0 to n - 1 do
    visit v
  done

let dfs_preorder g =
  let order = ref [] in
  dfs g ~pre:(fun v -> order := v :: !order) ~post:(fun _ -> ());
  List.rev !order

let dfs_postorder g =
  let order = ref [] in
  dfs g ~pre:(fun _ -> ()) ~post:(fun v -> order := v :: !order);
  List.rev !order

let reverse_postorder g = List.rev (dfs_postorder g)

let is_topological g order =
  let n = Graph.n_vertices g in
  if List.length order <> n then false
  else begin
    let position = Array.make n (-1) in
    List.iteri (fun i v -> if v >= 0 && v < n then position.(v) <- i) order;
    Array.for_all (fun p -> p >= 0) position
    && List.for_all
         (fun (u, v) -> position.(u) < position.(v))
         (Graph.edges g)
  end
