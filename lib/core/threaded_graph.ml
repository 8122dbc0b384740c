open Import

(* One record per graph vertex. [thread = -1] means the vertex is either
   unscheduled or scheduled free (zero-resource); [scheduled]
   disambiguates. [pos] orders vertices within their thread and is
   renumbered after each splice (O(thread length), keeping a schedule
   call linear). [preds]/[succs] hold only the explicit (cross-thread or
   free) edges; consecutive thread members are implicitly ordered via
   [prev]/[next]. *)
type node = {
  mutable scheduled : bool;
  mutable thread : int;
  mutable prev : int;
  mutable next : int;
  mutable pos : int;
  mutable preds : int list;
  mutable succs : int list;
  mutable sdist : int;
  mutable tdist : int;
}

let fresh_node () =
  {
    scheduled = false;
    thread = -1;
    prev = -1;
    next = -1;
    pos = -1;
    preds = [];
    succs = [];
    sdist = 0;
    tdist = 0;
  }

module Vec = Dfg.Vec
module Tel = Telemetry

(* The reachability index and the graph generation it reflects. The box
   is {e shared} between a state and its [copy]-ies (they also share the
   underlying graph): whichever copy syncs first catches the index up,
   and the others see a matching generation. Keeping the generation
   inside the box (not per state) is what makes that safe — journal
   replay, unlike signature comparison, must happen exactly once. *)
type reach_box = { mutable index : Reach.t; mutable gen : int }

(* Work buffers of the select path, one slot per graph vertex, so a
   [schedule] call allocates nothing proportional to |V|. They are
   allocated at [create] and replaced by larger ones in [sync] when the
   graph grows. They are {e never} shared: a [copy] starts with small
   buffers of its own (grown on first use), so copies can be scheduled
   from different domains.

   - [indeg]/[order]: the labelling pass's remaining in-degrees and its
     Kahn queue, which ends up holding a topological order.
   - [up]/[down]: membership marks of the select up-set and down-set. A
     vertex is in the set iff its slot equals [epoch]; bumping [epoch]
     empties both sets in O(1).
   - [queue]: the closures' BFS queue ([qtail] is its fill level), and
     the incremental relabelling's worklist (a ring: [qhead]/[qtail]
     count pops/pushes, [down] marks the vertices on it).
   - [anc]/[desc]: the scheduled graph-ancestors / -descendants of
     [relatives_of], ascending, read once per call from the [Reach]
     rows and used by both select and commit. *)
type scratch = {
  indeg : int array;
  order : int array;
  up : int array;
  down : int array;
  mutable epoch : int;
  queue : int array;
  mutable qhead : int;
  mutable qtail : int;
  anc : int array;
  mutable n_anc : int;
  desc : int array;
  mutable n_desc : int;
  mutable relatives_of : int;
}

let make_scratch n =
  let n = max n 16 in
  {
    indeg = Array.make n 0;
    order = Array.make n 0;
    up = Array.make n 0;
    down = Array.make n 0;
    epoch = 0;
    queue = Array.make n 0;
    qhead = 0;
    qtail = 0;
    anc = Array.make n 0;
    n_anc = 0;
    desc = Array.make n 0;
    n_desc = 0;
    relatives_of = -1;
  }

type t = {
  graph : Graph.t;
  classes : Resources.fu_class array; (* thread -> its unit class *)
  head : int array; (* thread -> first vertex or -1 *)
  tail : int array;
  nodes : node Vec.t;
  mutable n_scheduled : int;
  reach : reach_box;
  mutable scratch : scratch;
  (* The node labels (sdist/tdist) and [dia] are exact iff [labelled]
     and the graph is still at [labels_gen]; otherwise the next reader
     runs the full pass. *)
  mutable labelled : bool;
  mutable labels_gen : int;
  mutable dia : int;
}

type position = { thread : int; after : Graph.vertex option }

let create graph ~resources =
  let classes =
    Array.concat
      (List.map
         (fun (cls, n) -> Array.make n cls)
         (Resources.classes resources))
  in
  let k = Array.length classes in
  {
    graph;
    classes;
    head = Array.make (max k 1) (-1);
    tail = Array.make (max k 1) (-1);
    nodes = Vec.create ~dummy:(fresh_node ()) ();
    n_scheduled = 0;
    reach = { index = Reach.of_graph graph; gen = Graph.generation graph };
    scratch = make_scratch (Graph.n_vertices graph);
    labelled = true; (* nothing scheduled: vacuously exact *)
    labels_gen = Graph.generation graph;
    dia = 0;
  }

let graph t = t.graph
let n_threads t = Array.length t.classes

let thread_class t k =
  if k < 0 || k >= n_threads t then
    invalid_arg (Printf.sprintf "Threaded_graph.thread_class: no thread %d" k);
  t.classes.(k)

(* Exact reachability query on the current graph (not the index): used
   to decide whether a journalled edge removal changed the closure. *)
let graph_reaches g u v =
  let visited = Bytes.make (Graph.n_vertices g) '\000' in
  let queue = Queue.create () in
  Queue.add u queue;
  let found = ref false in
  while (not !found) && not (Queue.is_empty queue) do
    let w = Queue.pop queue in
    Graph.iter_succs
      (fun s ->
        if s = v then found := true
        else if Bytes.get visited s = '\000' then begin
          Bytes.set visited s '\001';
          Queue.add s queue
        end)
      g w
  done;
  !found

let emit_reach_update ~rows ~words ~rebuilt =
  if Tel.enabled () then
    Tel.emit (fun s -> s.Tel.Sink.reach_update ~rows ~words ~rebuilt)

(* Catch the closure up with the graph's mutation journal. Additions are
   monotone, so [Reach.add_vertex]/[Reach.add_edge] replay them exactly.
   Removals cannot shrink a bitset closure in place; instead, note that
   the replayed index equals the closure of (final graph + the removed
   edges), so it is already exact whenever each removed edge [u -> v]
   is {e covered} — [u] still reaches [v] through the final graph, as
   every rewiring in [Dfg.Mutate] guarantees by construction (the
   replaced edge is bypassed via the inserted vertex). Only an uncovered
   removal forces a from-scratch rebuild. *)
let catch_up_closure t gen =
  let index = t.reach.index in
  let rows0, words0 = Reach.update_stats index in
  let removals = ref [] in
  List.iter
    (fun (m : Graph.mutation) ->
      match m with
      | Graph.Added_vertex v ->
        let v' = Reach.add_vertex index in
        assert (v' = v)
      | Graph.Added_edge (u, v) -> Reach.add_edge index u v
      | Graph.Removed_edge (u, v) -> removals := (u, v) :: !removals
      | Graph.Changed_delay _ -> () (* delays do not order anything *))
    (Graph.mutations_since t.graph t.reach.gen);
  let covered (u, v) = graph_reaches t.graph u v in
  if List.for_all covered !removals then begin
    let rows1, words1 = Reach.update_stats index in
    t.reach.gen <- gen;
    emit_reach_update ~rows:(rows1 - rows0) ~words:(words1 - words0)
      ~rebuilt:false
  end
  else begin
    let index = Reach.of_graph t.graph in
    let rows, words = Reach.update_stats index in
    t.reach.index <- index;
    t.reach.gen <- gen;
    emit_reach_update ~rows ~words ~rebuilt:true
  end

(* Grow the node store and the scratch buffers to match the (possibly
   mutated) graph, and refresh the reachability index if the graph
   changed. *)
let sync t =
  let n = Graph.n_vertices t.graph in
  while Vec.length t.nodes < n do
    ignore (Vec.push t.nodes (fresh_node ()))
  done;
  if Array.length t.scratch.indeg < n then
    t.scratch <- make_scratch (max n (2 * Array.length t.scratch.indeg));
  let gen = Graph.generation t.graph in
  if gen <> t.reach.gen then catch_up_closure t gen

let node t v =
  if v < 0 || v >= Graph.n_vertices t.graph then
    invalid_arg (Printf.sprintf "Threaded_graph: unknown vertex %d" v);
  sync t;
  Vec.get t.nodes v

let is_scheduled t v = (node t v).scheduled
let n_scheduled t = t.n_scheduled

let thread_of t v =
  let n = node t v in
  if n.scheduled && n.thread >= 0 then Some n.thread else None

let thread_members t k =
  if k < 0 || k >= n_threads t then
    invalid_arg (Printf.sprintf "Threaded_graph.thread_members: no thread %d" k);
  sync t;
  let rec walk v acc =
    if v < 0 then List.rev acc
    else walk (Vec.get t.nodes v).next (v :: acc)
  in
  walk t.head.(k) []

let imax (a : int) b = if a >= b then a else b

(* State successors/predecessors of a scheduled vertex: the implicit
   thread neighbour plus the explicit cross edges. *)
let iter_state_succs f t v =
  let n = Vec.get t.nodes v in
  if n.next >= 0 then f n.next;
  List.iter f n.succs

let iter_state_preds f t v =
  let n = Vec.get t.nodes v in
  if n.prev >= 0 then f n.prev;
  List.iter f n.preds

let iter_scheduled f t =
  for v = 0 to Vec.length t.nodes - 1 do
    if (Vec.get t.nodes v).scheduled then f v
  done

(* --- labelling ---------------------------------------------------- *)

(* The list walks below are written out (rather than [List.iter] over a
   closure) so the labelling pass allocates nothing. *)
let rec max_sdist nodes acc = function
  | [] -> acc
  | p :: rest -> max_sdist nodes (imax acc (Vec.get nodes p).sdist) rest

let rec max_tdist nodes acc = function
  | [] -> acc
  | q :: rest -> max_tdist nodes (imax acc (Vec.get nodes q).tdist) rest

(* v's labels from those of its state preds / succs. *)
let sdist_of t v =
  let n = Vec.get t.nodes v in
  let from_prev = if n.prev >= 0 then (Vec.get t.nodes n.prev).sdist else 0 in
  max_sdist t.nodes from_prev n.preds + Graph.delay t.graph v

let tdist_of t v =
  let n = Vec.get t.nodes v in
  let from_next = if n.next >= 0 then (Vec.get t.nodes n.next).tdist else 0 in
  max_tdist t.nodes from_next n.succs + Graph.delay t.graph v

let release s x =
  let d = s.indeg.(x) - 1 in
  s.indeg.(x) <- d;
  if d = 0 then begin
    s.order.(s.qtail) <- x;
    s.qtail <- s.qtail + 1
  end

let rec release_all s = function
  | [] -> ()
  | x :: rest ->
    release s x;
    release_all s rest

(* Forward/backward labelling (the paper's forwardLabel/backwardLabel),
   from scratch: longest-path distances over the state's partial order.
   One Kahn pass over the scheduled vertices fills [order] with a
   topological order and sets [sdist] as each vertex leaves the queue
   (its state preds are all labelled by then); [tdist] is a sweep of
   [order] backwards. Linear in the number of state edges thanks to the
   degree bound. Only needed after a graph mutation or an overlong
   incremental update (see [relabel_from]). *)
let label t =
  sync t;
  let s = t.scratch and nodes = t.nodes in
  s.qtail <- 0;
  for v = 0 to Vec.length nodes - 1 do
    let n = Vec.get nodes v in
    if n.scheduled then begin
      let d = List.length n.preds + if n.prev >= 0 then 1 else 0 in
      s.indeg.(v) <- d;
      if d = 0 then begin
        s.order.(s.qtail) <- v;
        s.qtail <- s.qtail + 1
      end
    end
  done;
  let head = ref 0 and dia = ref 0 in
  while !head < s.qtail do
    let v = s.order.(!head) in
    incr head;
    let n = Vec.get nodes v in
    n.sdist <- sdist_of t v;
    dia := imax !dia n.sdist;
    if n.next >= 0 then release s n.next;
    release_all s n.succs
  done;
  if s.qtail <> t.n_scheduled then
    failwith "Threaded_graph.label: scheduling state contains a cycle";
  for i = s.qtail - 1 downto 0 do
    let v = s.order.(i) in
    (Vec.get nodes v).tdist <- tdist_of t v
  done;
  t.dia <- !dia;
  t.labelled <- true;
  t.labels_gen <- Graph.generation t.graph

let labels_exact t = t.labelled && t.labels_gen = Graph.generation t.graph

(* Bring the labels up to date: a no-op unless the graph was mutated or
   the last incremental update gave up. *)
let ensure_labels t =
  sync t;
  if not (labels_exact t) then label t

(* Incremental labelling. Committing [v] can raise sdist only on v's
   state descendants and tdist only on its state ancestors, and never
   lowers a label: every edge a commit removes is bypassed through v
   (Figure 2), so every old path survives at least as long. Starting
   from the old labels, a worklist relaxation from v therefore reaches
   the exact new longest paths while touching only the vertices whose
   label grows. A vertex may be relaxed more than once, so the walk is
   capped: past [n_scheduled] pops it gives up and leaves the labels to
   the full pass, which keeps a call linear in the worst case. *)
let enqueue s x =
  if s.down.(x) <> s.epoch then begin
    s.down.(x) <- s.epoch;
    s.queue.(s.qtail mod Array.length s.queue) <- x;
    s.qtail <- s.qtail + 1
  end

let dequeue s =
  let x = s.queue.(s.qhead mod Array.length s.queue) in
  s.qhead <- s.qhead + 1;
  s.down.(x) <- 0;
  x

let raise_sdist t from y =
  let n = Vec.get t.nodes y in
  let d = from + Graph.delay t.graph y in
  if d > n.sdist then begin
    n.sdist <- d;
    t.dia <- imax t.dia d;
    enqueue t.scratch y
  end

let raise_tdist t from y =
  let n = Vec.get t.nodes y in
  let d = from + Graph.delay t.graph y in
  if d > n.tdist then begin
    n.tdist <- d;
    enqueue t.scratch y
  end

let rec raise_all bump t from = function
  | [] -> ()
  | y :: rest ->
    bump t from y;
    raise_all bump t from rest

(* Run the worklist seeded with [v]; [false] if the cap was hit. *)
let drain t ~forward =
  let s = t.scratch in
  while s.qhead < s.qtail && s.qhead <= t.n_scheduled do
    let n = Vec.get t.nodes (dequeue s) in
    if forward then begin
      if n.next >= 0 then raise_sdist t n.sdist n.next;
      raise_all raise_sdist t n.sdist n.succs
    end
    else begin
      if n.prev >= 0 then raise_tdist t n.tdist n.prev;
      raise_all raise_tdist t n.tdist n.preds
    end
  done;
  s.qhead >= s.qtail

let relabel_from t v =
  let s = t.scratch in
  let n = Vec.get t.nodes v in
  n.sdist <- sdist_of t v;
  n.tdist <- tdist_of t v;
  t.dia <- imax t.dia n.sdist;
  let run ~forward =
    s.epoch <- s.epoch + 1;
    s.qhead <- 0;
    s.qtail <- 0;
    enqueue s v;
    drain t ~forward
  in
  t.labelled <- run ~forward:true && run ~forward:false

let diameter t =
  ensure_labels t;
  t.dia

(* --- closures ----------------------------------------------------- *)

let mark s marks x =
  if marks.(x) <> s.epoch then begin
    marks.(x) <- s.epoch;
    s.queue.(s.qtail) <- x;
    s.qtail <- s.qtail + 1
  end

let rec mark_all s marks = function
  | [] -> ()
  | x :: rest ->
    mark s marks x;
    mark_all s marks rest

(* Close the marked, queued seeds under state preds ([backward]) or
   state succs: the up-set (everything ⪯_S some seed) or the down-set. *)
let close t marks ~backward =
  let s = t.scratch in
  let head = ref 0 in
  while !head < s.qtail do
    let n = Vec.get t.nodes s.queue.(!head) in
    incr head;
    if backward then begin
      if n.prev >= 0 then mark s marks n.prev;
      mark_all s marks n.preds
    end
    else begin
      if n.next >= 0 then mark s marks n.next;
      mark_all s marks n.succs
    end
  done

let precedes t u v =
  sync t;
  if not ((Vec.get t.nodes u).scheduled && (Vec.get t.nodes v).scheduled)
  then false
  else begin
    let s = t.scratch in
    s.epoch <- s.epoch + 1;
    s.qtail <- 0;
    iter_state_succs (mark s s.down) t u;
    close t s.down ~backward:false;
    s.down.(v) = s.epoch
  end

let state_graph t =
  sync t;
  let g = Graph.create () in
  Graph.iter_vertices
    (fun v ->
      let scheduled = (Vec.get t.nodes v).scheduled in
      let delay = if scheduled then Graph.delay t.graph v else 0 in
      let op = if scheduled then Graph.op t.graph v else Op.Const 0 in
      let id = Graph.add_vertex g ~delay ~name:(Graph.name t.graph v) op in
      assert (id = v))
    t.graph;
  iter_scheduled
    (fun v -> iter_state_succs (fun s -> Graph.add_edge g v s) t v)
    t;
  g

(* Edge count and Lemma-7 degree maxima of the current state — shared by
   [stats] and the telemetry end-of-call summary, so the two can never
   disagree. *)
let edge_degree_stats t =
  let in_thread v = (Vec.get t.nodes v).thread >= 0 in
  let n_state_edges = ref 0 and max_in = ref 0 and max_out = ref 0 in
  let degree iter v =
    let d = ref 0 in
    iter (fun x -> if in_thread x then incr d) t v;
    !d
  in
  iter_scheduled
    (fun v ->
      iter_state_succs (fun _ -> incr n_state_edges) t v;
      max_in := imax !max_in (degree iter_state_preds v);
      max_out := imax !max_out (degree iter_state_succs v))
    t;
  (!n_state_edges, !max_in, !max_out)

(* --- select ------------------------------------------------------- *)

(* Load the scheduled graph-ancestors / graph-descendants of v (the
   paper's "∀p, p ≺_G v" — the transitive relation, not just direct
   preds) into [anc]/[desc], ascending, straight from the [Reach] rows.
   Commit links them in this order. *)
let load_relatives t v =
  let s = t.scratch and nodes = t.nodes in
  s.n_anc <- 0;
  s.n_desc <- 0;
  Reach.iter_ancestors
    (fun p ->
      if (Vec.get nodes p).scheduled then begin
        s.anc.(s.n_anc) <- p;
        s.n_anc <- s.n_anc + 1
      end)
    t.reach.index v;
  Reach.iter_descendants
    (fun q ->
      if (Vec.get nodes q).scheduled then begin
        s.desc.(s.n_desc) <- q;
        s.n_desc <- s.n_desc + 1
      end)
    t.reach.index v;
  s.relatives_of <- v

let is_free_op t v =
  Graph.delay t.graph v = 0
  || Resources.class_of_op (Graph.op t.graph v) = None

(* Scan every position of every thread that can execute [v], in
   deterministic order (threads ascending, each head first, then after
   each member), calling [f k after cost] on the feasible ones ([after]
   is -1 for the head). Returns the number of slots examined (the
   Theorem 3 work measure). Requires [select_context v] to be fresh:
   fresh labels and the up/down marks. [trace] reports each feasible
   candidate to the telemetry sink — only the [schedule] path sets it,
   so introspection helpers stay silent. *)
let scan_positions ?(trace = false) t v ~intrinsic_src ~intrinsic_snk f =
  let s = t.scratch and nodes = t.nodes in
  let in_up x = x >= 0 && s.up.(x) = s.epoch in
  let delay_v = Graph.delay t.graph v in
  let offer k after ~sdist_prev ~tdist_next =
    let cost =
      imax sdist_prev intrinsic_src + imax tdist_next intrinsic_snk + delay_v
    in
    if trace then
      Tel.emit (fun sink ->
          sink.Tel.Sink.candidate ~v ~thread:k
            ~after:(if after < 0 then None else Some after)
            ~cost);
    f k after cost
  in
  let scanned = ref 0 in
  match Resources.class_of_op (Graph.op t.graph v) with
  | None -> 0
  | Some cls ->
    for k = 0 to n_threads t - 1 do
      if Resources.equal_class t.classes.(k) cls then begin
        (* Position at the head of thread k. *)
        let first = t.head.(k) in
        incr scanned;
        if not (in_up first) then
          offer k (-1) ~sdist_prev:0
            ~tdist_next:(if first < 0 then 0 else (Vec.get nodes first).tdist);
        (* Positions after each member. *)
        let w = ref first in
        while !w >= 0 do
          let nw = Vec.get nodes !w in
          let next = nw.next in
          incr scanned;
          if s.down.(!w) <> s.epoch && not (in_up next) then
            offer k !w ~sdist_prev:nw.sdist
              ~tdist_next:(if next < 0 then 0 else (Vec.get nodes next).tdist);
          w := next
        done
      end
    done;
    !scanned

(* Everything select needs for [v]: fresh labels, v's scheduled
   relatives (kept for commit), the up-set of its ancestors and the
   down-set of its descendants as marks, and the intrinsic source/sink
   distances through them. *)
let select_context t v =
  ensure_labels t;
  load_relatives t v;
  let s = t.scratch and nodes = t.nodes in
  s.epoch <- s.epoch + 1;
  let intrinsic_src = ref 0 and intrinsic_snk = ref 0 in
  s.qtail <- 0;
  for i = 0 to s.n_anc - 1 do
    let p = s.anc.(i) in
    intrinsic_src := imax !intrinsic_src (Vec.get nodes p).sdist;
    mark s s.up p
  done;
  close t s.up ~backward:true;
  s.qtail <- 0;
  for i = 0 to s.n_desc - 1 do
    let q = s.desc.(i) in
    intrinsic_snk := imax !intrinsic_snk (Vec.get nodes q).tdist;
    mark s s.down q
  done;
  close t s.down ~backward:false;
  (!intrinsic_src, !intrinsic_snk)

let costed_positions t v =
  let intrinsic_src, intrinsic_snk = select_context t v in
  let acc = ref [] in
  ignore
    (scan_positions t v ~intrinsic_src ~intrinsic_snk (fun k after cost ->
         let after = if after < 0 then None else Some after in
         acc := ({ thread = k; after }, cost) :: !acc));
  List.rev !acc

let feasible_positions t v =
  sync t;
  if (Vec.get t.nodes v).scheduled then []
  else if is_free_op t v then []
  else List.map fst (costed_positions t v)

let predicted_cost t v position =
  sync t;
  match List.assoc_opt position (costed_positions t v) with
  | Some cost -> cost
  | None -> invalid_arg "Threaded_graph.predicted_cost: infeasible position"

(* --- commit ------------------------------------------------------- *)

let renumber_thread t k =
  let rec walk v i =
    if v >= 0 then begin
      let n = Vec.get t.nodes v in
      n.pos <- i;
      walk n.next (i + 1)
    end
  in
  walk t.head.(k) 0

let rec mem_int (x : int) = function
  | [] -> false
  | y :: rest -> y = x || mem_int x rest

let add_explicit_edge t p v =
  let np = Vec.get t.nodes p and nv = Vec.get t.nodes v in
  if not (mem_int v np.succs) then begin
    np.succs <- v :: np.succs;
    nv.preds <- p :: nv.preds;
    if Tel.enabled () then
      Tel.emit (fun s -> s.Tel.Sink.edge_added ~src:p ~dst:v)
  end

let remove_explicit_edge t p v =
  let np = Vec.get t.nodes p and nv = Vec.get t.nodes v in
  np.succs <- List.filter (fun x -> x <> v) np.succs;
  nv.preds <- List.filter (fun x -> x <> p) nv.preds;
  if Tel.enabled () then
    Tel.emit (fun s -> s.Tel.Sink.edge_removed ~src:p ~dst:v)

(* The first of [xs] living in thread k (by Lemma 7 the only one among
   a vertex's explicit succs or preds), or -1. *)
let rec in_thread (nodes : node Vec.t) k = function
  | [] -> -1
  | x :: rest -> if (Vec.get nodes x).thread = k then x else in_thread nodes k rest

let succ_in_thread t p k = in_thread t.nodes k (Vec.get t.nodes p).succs
let pred_in_thread t q k = in_thread t.nodes k (Vec.get t.nodes q).preds

(* Tighten edges between the freshly placed [v] and one scheduled
   graph-ancestor [p] (Figure 2 (a)(b)(c), with the same-thread-pred
   collapse repair of DESIGN.md §2.4). [k] is v's thread (-1 if free). *)
let link_ancestor t ~v ~k p =
  let np = Vec.get t.nodes p in
  if np.thread = k && k >= 0 then
    (* Same thread: feasibility guaranteed p sits before v; implicit. *)
    ()
  else begin
    let wanted =
      if k < 0 then true
      else
        let e = succ_in_thread t p k in
        if e < 0 then true
        else
          let ne = Vec.get t.nodes e and nv = Vec.get t.nodes v in
          if ne.pos < nv.pos then false (* p -> e -> … -> v implied *)
          else begin
            remove_explicit_edge t p e;
            (* p ≺ e stays implied via p -> v -> … -> e. *)
            true
          end
    in
    if wanted then begin
      (* v keeps at most one explicit pred per foreign thread: the
         latest one. Free preds are never collapsed. *)
      if np.thread >= 0 then begin
        let p' = pred_in_thread t v np.thread in
        if p' < 0 || p' = p then add_explicit_edge t p v
        else if (Vec.get t.nodes p').pos >= np.pos then
          () (* existing pred is later: keep it *)
        else begin
          remove_explicit_edge t p' v;
          add_explicit_edge t p v
        end
      end
      else add_explicit_edge t p v
    end
  end

(* Mirror image for a scheduled graph-descendant [q]
   (Figure 2 (d)(e)(f)). *)
let link_descendant t ~v ~k q =
  let nq = Vec.get t.nodes q in
  if nq.thread = k && k >= 0 then ()
  else begin
    let wanted =
      if k < 0 then true
      else
        let e = pred_in_thread t q k in
        if e < 0 then true
        else
          let ne = Vec.get t.nodes e and nv = Vec.get t.nodes v in
          if ne.pos > nv.pos then false (* v -> … -> e -> q implied *)
          else begin
            remove_explicit_edge t e q;
            true
          end
    in
    if wanted then begin
      if nq.thread >= 0 then begin
        let q' = succ_in_thread t v nq.thread in
        if q' < 0 || q' = q then add_explicit_edge t v q
        else if (Vec.get t.nodes q').pos <= nq.pos then
          () (* existing succ is earlier: keep *)
        else begin
          remove_explicit_edge t v q';
          add_explicit_edge t v q
        end
      end
      else add_explicit_edge t v q
    end
  end

let splice t v { thread = k; after } =
  let nv = Vec.get t.nodes v in
  nv.thread <- k;
  (match after with
  | None ->
    let first = t.head.(k) in
    nv.prev <- -1;
    nv.next <- first;
    if first >= 0 then (Vec.get t.nodes first).prev <- v
    else t.tail.(k) <- v;
    t.head.(k) <- v
  | Some w ->
    let nw = Vec.get t.nodes w in
    if nw.thread <> k then
      invalid_arg "Threaded_graph.splice: anchor not in the target thread";
    let next = nw.next in
    nv.prev <- w;
    nv.next <- next;
    nw.next <- v;
    if next >= 0 then (Vec.get t.nodes next).prev <- v
    else t.tail.(k) <- v);
  renumber_thread t k

(* Link the freshly placed [v] to its scheduled relatives, which
   [load_relatives v] must have left in the scratch buffers. *)
let link_relatives t v ~k =
  let s = t.scratch in
  assert (s.relatives_of = v);
  for i = 0 to s.n_anc - 1 do
    link_ancestor t ~v ~k s.anc.(i)
  done;
  for i = 0 to s.n_desc - 1 do
    link_descendant t ~v ~k s.desc.(i)
  done

(* After a commit the labels are either updated from [v] or, if they
   were not exact beforehand, left for the full pass. *)
let update_labels t v ~was_exact =
  if was_exact then relabel_from t v else t.labelled <- false

let commit t v position =
  let was_exact = labels_exact t in
  let nv = Vec.get t.nodes v in
  splice t v position;
  nv.scheduled <- true;
  t.n_scheduled <- t.n_scheduled + 1;
  link_relatives t v ~k:position.thread;
  update_labels t v ~was_exact

let commit_free t v =
  let was_exact = labels_exact t in
  let nv = Vec.get t.nodes v in
  nv.thread <- -1;
  nv.scheduled <- true;
  t.n_scheduled <- t.n_scheduled + 1;
  load_relatives t v;
  link_relatives t v ~k:(-1);
  update_labels t v ~was_exact

let commit_at t v position =
  sync t;
  let nv = node t v in
  if nv.scheduled then
    invalid_arg "Threaded_graph.commit_at: vertex already scheduled";
  if is_free_op t v then
    invalid_arg "Threaded_graph.commit_at: zero-resource op is placed free";
  let feasible = feasible_positions t v in
  if not (List.mem position feasible) then
    invalid_arg "Threaded_graph.commit_at: infeasible position";
  commit t v position

type tie_break = [ `First | `Balance | `Pack ]

let thread_population t k =
  let rec walk v acc =
    if v < 0 then acc else walk (Vec.get t.nodes v).next (acc + 1)
  in
  walk t.head.(k) 0

(* End-of-call telemetry summary: O(V+E) recomputation of diameter,
   edge count and degree maxima (plus an optional transitive-closure
   softness sample) — only ever run with a sink installed, never on the
   production path. *)
let emit_schedule_done t ~v ~thread ~scanned ~t0 =
  let diameter = diameter t in
  let state_edges, max_in, max_out = edge_degree_stats t in
  let ordered_pairs =
    if Tel.softness_due () then
      Some (Reach.count_pairs (Reach.of_graph (state_graph t)))
    else None
  in
  let summary =
    {
      Tel.scanned;
      diameter;
      state_edges;
      max_thread_in_degree = max_in;
      max_thread_out_degree = max_out;
      ordered_pairs;
      elapsed_ns = Tel.now_ns () - t0;
    }
  in
  Tel.emit (fun s -> s.Tel.Sink.schedule_done ~v ~thread ~summary)

let tie_rule_name = function
  | `First -> "first"
  | `Balance -> "balance"
  | `Pack -> "pack"

let schedule ?(tie = `First) t v =
  sync t;
  let nv = node t v in
  if not nv.scheduled then begin
    let tel = Tel.enabled () in
    let t0 = if tel then Tel.now_ns () else 0 in
    if tel then
      Tel.emit (fun s ->
          s.Tel.Sink.schedule_start ~v ~name:(Graph.name t.graph v));
    if is_free_op t v then begin
      if tel then
        Tel.emit (fun s ->
            s.Tel.Sink.free_placed ~v ~name:(Graph.name t.graph v));
      commit_free t v;
      if tel then emit_schedule_done t ~v ~thread:None ~scanned:0 ~t0
    end
    else begin
      let intrinsic_src, intrinsic_snk = select_context t v in
      (* Running minimum: [`First] keeps the first minimum in scan
         order; [`Balance] and [`Pack] replace it only by a strictly
         lighter tie, i.e. they pick the first lightest of the minima. *)
      let best_cost = ref max_int and best_thread = ref (-1)
      and best_after = ref (-1) and best_weight = ref None and ties = ref 0 in
      let weigh k =
        let population = thread_population t k in
        if tie = `Pack then -population else population
      in
      let scanned =
        scan_positions ~trace:tel t v ~intrinsic_src ~intrinsic_snk
          (fun k after cost ->
            if cost < !best_cost then begin
              best_cost := cost;
              best_thread := k;
              best_after := after;
              best_weight := None;
              ties := 1
            end
            else if cost = !best_cost then begin
              incr ties;
              if tie <> `First then begin
                let bw =
                  match !best_weight with
                  | Some w -> w
                  | None -> weigh !best_thread
                in
                let w = weigh k in
                if w < bw then begin
                  best_thread := k;
                  best_after := after;
                  best_weight := Some w
                end
                else best_weight := Some bw
              end
            end)
      in
      if !best_thread < 0 then
        invalid_arg
          (Printf.sprintf
             "Threaded_graph.schedule: no thread can execute %s (%s)"
             (Graph.name t.graph v)
             (Op.to_string (Graph.op t.graph v)));
      if tel && !ties > 1 then
        Tel.emit (fun s ->
            s.Tel.Sink.tie_break ~v ~rule:(tie_rule_name tie) ~ties:!ties);
      let best_pos =
        {
          thread = !best_thread;
          after = (if !best_after < 0 then None else Some !best_after);
        }
      in
      if tel then
        Tel.emit (fun s ->
            s.Tel.Sink.chosen ~v ~thread:best_pos.thread
              ~after:best_pos.after ~cost:!best_cost);
      commit t v best_pos;
      if tel then
        emit_schedule_done t ~v ~thread:(Some best_pos.thread) ~scanned ~t0
    end
  end

let schedule_all ?tie t order = List.iter (schedule ?tie t) order

(* --- export ------------------------------------------------------- *)

let to_schedule ?(placement = `Asap) t =
  sync t;
  if t.n_scheduled <> Graph.n_vertices t.graph then
    invalid_arg
      (Printf.sprintf
         "Threaded_graph.to_schedule: %d of %d vertices scheduled"
         t.n_scheduled (Graph.n_vertices t.graph));
  ensure_labels t;
  let dia = t.dia in
  let starts =
    Array.init (Graph.n_vertices t.graph) (fun v ->
        let n = Vec.get t.nodes v in
        match placement with
        | `Asap -> n.sdist - Graph.delay t.graph v
        | `Alap -> dia - n.tdist)
  in
  Schedule.make t.graph ~starts

type stats = {
  n_scheduled : int;
  n_in_threads : int;
  n_free : int;
  n_state_edges : int;
  max_thread_in_degree : int;
  max_thread_out_degree : int;
  ordered_pairs : int option;
}

let stats ?(with_softness = false) t =
  sync t;
  let n_in_threads = ref 0 in
  iter_scheduled
    (fun v -> if (Vec.get t.nodes v).thread >= 0 then incr n_in_threads)
    t;
  let n_in_threads = !n_in_threads in
  let n_state_edges, max_thread_in_degree, max_thread_out_degree =
    edge_degree_stats t
  in
  let ordered_pairs =
    if with_softness then
      Some (Reach.count_pairs (Reach.of_graph (state_graph t)))
    else None
  in
  {
    n_scheduled = t.n_scheduled;
    n_in_threads;
    n_free = t.n_scheduled - n_in_threads;
    n_state_edges;
    max_thread_in_degree;
    max_thread_out_degree;
    ordered_pairs;
  }

let copy t =
  sync t;
  let nodes = Vec.create ~capacity:(Vec.length t.nodes) ~dummy:(fresh_node ()) () in
  Vec.iter
    (fun n ->
      ignore
        (Vec.push nodes
           {
             scheduled = n.scheduled;
             thread = n.thread;
             prev = n.prev;
             next = n.next;
             pos = n.pos;
             preds = n.preds;
             succs = n.succs;
             sdist = n.sdist;
             tdist = n.tdist;
           }))
    t.nodes;
  {
    graph = t.graph;
    classes = Array.copy t.classes;
    head = Array.copy t.head;
    tail = Array.copy t.tail;
    nodes;
    n_scheduled = t.n_scheduled;
    reach = t.reach; (* shared box: see its definition *)
    scratch = make_scratch 0;
    labelled = t.labelled;
    labels_gen = t.labels_gen;
    dia = t.dia;
  }
