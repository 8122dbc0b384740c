open Import

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
   - [down]: marks of the select down-set: in it iff equal to [epoch],
     so bumping [epoch] empties the set in O(1).
   - [queue]: the down-set BFS queue ([qtail] is its fill level), and
     the worklist of the incremental relabelling and of the frontier
     update (a ring: [qhead]/[qtail] count pops/pushes, [down] marks the
     vertices on it).
   - [anc]/[desc]: the scheduled graph-ancestors / -descendants of
     [relatives_of], ascending, read once per call from the [Reach]
     rows and used by both select and commit.
   - [upto]: per thread, the position of the last member in the select
     up-set (-1 if none), read off the ancestors' frontiers. *)
type scratch = {
  indeg : int array;
  order : int array;
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
  upto : int array;
}

let make_scratch n ~width =
  let n = max n 16 in
  {
    indeg = Array.make n 0;
    order = Array.make n 0;
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
    upto = Array.make (max width 1) (-1);
  }

(* The state is a structure of int arrays indexed by vertex, sized to a
   capacity [cap] >= |V| that doubles when the graph outgrows it.

   - [owner]: the vertex's thread, [free] for a scheduled zero-resource
     vertex, [unscheduled] before its commit.
   - [prev]/[next]: thread neighbours (-1 at the ends), the implicit
     thread edges. [pos] orders a thread and is renumbered from the
     inserted vertex on after each splice (O(thread length), keeping a
     schedule call linear).
   - [sdist]/[tdist]: the source/sink distance labels.
   - [ins]/[outs]: the paper's per-thread slots [v.in[i]]/[v.out[i]],
     flat V×K ([width] = K): the explicit pred / succ of v living in
     thread i, or -1. Lemma 7's tightening keeps at most one per thread,
     so one slot each is exact; adding or removing an edge and finding
     a vertex's neighbour in a thread are O(1).
   - [free_preds]/[free_succs]: explicit edges whose other end is a free
     vertex, which belongs to no thread and so has no slot.
   - [front]: flat V×K, [front.(v*K+i)] the last member of thread i
     that is ⪯_S v, or -1 — v's up-set, one vertex per thread. Rows of
     unscheduled vertices are all -1.
   - [n_explicit]: the number of explicit edges (filled slots plus free
     neighbours, counted once per edge), kept by the two edge
     primitives so the state-edge count is O(K). *)
type t = {
  graph : Graph.t;
  classes : Resources.fu_class array; (* thread -> its unit class *)
  width : int;
  head : int array; (* thread -> first vertex or -1 *)
  count : int array; (* thread -> number of members *)
  mutable cap : int;
  mutable owner : int array;
  mutable prev : int array;
  mutable next : int array;
  mutable pos : int array;
  mutable sdist : int array;
  mutable tdist : int array;
  mutable ins : int array;
  mutable outs : int array;
  mutable free_preds : int list array;
  mutable free_succs : int list array;
  mutable front : int array;
  mutable n_explicit : int;
  mutable n_scheduled : int;
  reach : reach_box;
  mutable scratch : scratch;
  (* The labels (sdist/tdist) and [dia] are exact iff [labelled] and
     the graph is still at [labels_gen]; otherwise the next reader runs
     the full pass. *)
  mutable labelled : bool;
  mutable labels_gen : int;
  mutable dia : int;
}

type position = { thread : int; after : Graph.vertex option }

let unscheduled = -2
let free = -1

let create graph ~resources =
  let classes =
    Array.concat
      (List.map
         (fun (cls, n) -> Array.make n cls)
         (Resources.classes resources))
  in
  let k = Array.length classes in
  let cap = max (Graph.n_vertices graph) 16 in
  {
    graph;
    classes;
    width = k;
    head = Array.make (max k 1) (-1);
    count = Array.make (max k 1) 0;
    cap;
    owner = Array.make cap unscheduled;
    prev = Array.make cap (-1);
    next = Array.make cap (-1);
    pos = Array.make cap (-1);
    sdist = Array.make cap 0;
    tdist = Array.make cap 0;
    ins = Array.make (cap * k) (-1);
    outs = Array.make (cap * k) (-1);
    free_preds = Array.make cap [];
    free_succs = Array.make cap [];
    front = Array.make (cap * k) (-1);
    n_explicit = 0;
    n_scheduled = 0;
    reach = { index = Reach.of_graph graph; gen = Graph.generation graph };
    scratch = make_scratch cap ~width:k;
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
  if Tel.enabled () then Tel.emit (Tel.Reach_update { rows; words; rebuilt })

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

let grown a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Grow the vertex arrays and the scratch buffers to match the (possibly
   mutated) graph, and refresh the reachability index if the graph
   changed. Growth doubles the capacity, so it is amortised O(1) per
   added vertex. *)
let sync t =
  let n = Graph.n_vertices t.graph in
  if n > t.cap then begin
    let cap = max n (2 * t.cap) and k = t.width in
    t.owner <- grown t.owner cap unscheduled;
    t.prev <- grown t.prev cap (-1);
    t.next <- grown t.next cap (-1);
    t.pos <- grown t.pos cap (-1);
    t.sdist <- grown t.sdist cap 0;
    t.tdist <- grown t.tdist cap 0;
    t.ins <- grown t.ins (cap * k) (-1);
    t.outs <- grown t.outs (cap * k) (-1);
    t.free_preds <- grown t.free_preds cap [];
    t.free_succs <- grown t.free_succs cap [];
    t.front <- grown t.front (cap * k) (-1);
    t.cap <- cap
  end;
  if Array.length t.scratch.indeg < n then
    t.scratch <-
      make_scratch (max n (2 * Array.length t.scratch.indeg)) ~width:t.width;
  let gen = Graph.generation t.graph in
  if gen <> t.reach.gen then catch_up_closure t gen

let check_vertex t v =
  if v < 0 || v >= Graph.n_vertices t.graph then
    invalid_arg (Printf.sprintf "Threaded_graph: unknown vertex %d" v);
  sync t

let scheduled t v = t.owner.(v) <> unscheduled

let is_scheduled t v =
  check_vertex t v;
  scheduled t v

let n_scheduled t = t.n_scheduled

let thread_of t v =
  check_vertex t v;
  let k = t.owner.(v) in
  if k >= 0 then Some k else None

let thread_members t k =
  if k < 0 || k >= n_threads t then
    invalid_arg (Printf.sprintf "Threaded_graph.thread_members: no thread %d" k);
  sync t;
  let rec walk v acc =
    if v < 0 then List.rev acc else walk t.next.(v) (v :: acc)
  in
  walk t.head.(k) []

let imax (a : int) b = if a >= b then a else b

let rec iter_list f v = function
  | [] -> ()
  | y :: rest ->
    f v y;
    iter_list f v rest

(* [f v y] for each state successor / predecessor [y] of a scheduled
   [v]: the thread neighbour, the slots, then the free neighbours.
   Passing [v] back lets a walk build [f] once, not once per vertex. *)
let iter_succs f t v =
  if t.next.(v) >= 0 then f v t.next.(v);
  for i = v * t.width to ((v + 1) * t.width) - 1 do
    if t.outs.(i) >= 0 then f v t.outs.(i)
  done;
  iter_list f v t.free_succs.(v)

let iter_preds f t v =
  if t.prev.(v) >= 0 then f v t.prev.(v);
  for i = v * t.width to ((v + 1) * t.width) - 1 do
    if t.ins.(i) >= 0 then f v t.ins.(i)
  done;
  iter_list f v t.free_preds.(v)

(* The number of v's explicit neighbours in threads, i.e. its filled
   [ins] or [outs] slots. *)
let filled t (slots : int array) v =
  let d = ref 0 in
  for i = v * t.width to ((v + 1) * t.width) - 1 do
    if slots.(i) >= 0 then incr d
  done;
  !d

let iter_scheduled f t =
  for v = 0 to Graph.n_vertices t.graph - 1 do
    if scheduled t v then f v
  done

(* --- labelling ---------------------------------------------------- *)

(* v's labels from those of its state preds / succs. *)
let sdist_of t v =
  let m = ref 0 in
  iter_preds (fun _ p -> m := imax !m t.sdist.(p)) t v;
  !m + Graph.delay t.graph v

let tdist_of t v =
  let m = ref 0 in
  iter_succs (fun _ q -> m := imax !m t.tdist.(q)) t v;
  !m + Graph.delay t.graph v

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
  let s = t.scratch in
  let push x =
    s.order.(s.qtail) <- x;
    s.qtail <- s.qtail + 1
  in
  let release _ x =
    s.indeg.(x) <- s.indeg.(x) - 1;
    if s.indeg.(x) = 0 then push x
  in
  s.qtail <- 0;
  iter_scheduled
    (fun v ->
      let from_prev = if t.prev.(v) >= 0 then 1 else 0 in
      s.indeg.(v) <- from_prev + filled t t.ins v + List.length t.free_preds.(v);
      if s.indeg.(v) = 0 then push v)
    t;
  let head = ref 0 and dia = ref 0 in
  while !head < s.qtail do
    let v = s.order.(!head) in
    incr head;
    t.sdist.(v) <- sdist_of t v;
    dia := imax !dia t.sdist.(v);
    iter_succs release t v
  done;
  if s.qtail <> t.n_scheduled then
    failwith "Threaded_graph.label: scheduling state contains a cycle";
  for i = s.qtail - 1 downto 0 do
    let v = s.order.(i) in
    t.tdist.(v) <- tdist_of t v
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

let start_worklist s v =
  s.epoch <- s.epoch + 1;
  s.qhead <- 0;
  s.qtail <- 0;
  enqueue s v

let raise_sdist t from y =
  let d = from + Graph.delay t.graph y in
  if d > t.sdist.(y) then begin
    t.sdist.(y) <- d;
    t.dia <- imax t.dia d;
    enqueue t.scratch y
  end

let raise_tdist t from y =
  let d = from + Graph.delay t.graph y in
  if d > t.tdist.(y) then begin
    t.tdist.(y) <- d;
    enqueue t.scratch y
  end

(* Run the worklist seeded with [v]; [false] if the cap was hit. *)
let drain t ~forward =
  let s = t.scratch in
  let down x y = raise_sdist t t.sdist.(x) y
  and up x y = raise_tdist t t.tdist.(x) y in
  while s.qhead < s.qtail && s.qhead <= t.n_scheduled do
    let x = dequeue s in
    if forward then iter_succs down t x else iter_preds up t x
  done;
  s.qhead >= s.qtail

let relabel_from t v =
  t.sdist.(v) <- sdist_of t v;
  t.tdist.(v) <- tdist_of t v;
  t.dia <- imax t.dia t.sdist.(v);
  let run ~forward =
    start_worklist t.scratch v;
    drain t ~forward
  in
  t.labelled <- run ~forward:true && run ~forward:false

let diameter t =
  ensure_labels t;
  t.dia

(* --- up-set frontiers --------------------------------------------- *)

(* Raise [dst]'s frontier row to the thread-wise maximum with [src]'s;
   [true] if it grew. Members of one thread compare by [pos]. *)
let merge_front t ~src ~dst =
  let k = t.width and grew = ref false in
  for i = 0 to k - 1 do
    let f = t.front.((src * k) + i) in
    if f >= 0 then begin
      let d = t.front.((dst * k) + i) in
      if d < 0 || t.pos.(f) > t.pos.(d) then begin
        t.front.((dst * k) + i) <- f;
        grew := true
      end
    end
  done;
  !grew

(* Give the freshly committed [v] its frontier row (the thread-wise
   maximum of its state preds' rows, plus v in its own thread) and push
   it forward. A commit only adds order through v (every edge it removes
   is bypassed through v), so only rows of v's state descendants grow.
   A descendant whose row does not grow already dominates v's row, and
   so does everything after it: the worklist stops there. *)
let update_fronts t v =
  let s = t.scratch in
  iter_preds (fun v p -> ignore (merge_front t ~src:p ~dst:v)) t v;
  if t.owner.(v) >= 0 then t.front.((v * t.width) + t.owner.(v)) <- v;
  let push x y = if merge_front t ~src:x ~dst:y then enqueue s y in
  start_worklist s v;
  while s.qhead < s.qtail do
    iter_succs push t (dequeue s)
  done

(* --- down-set closure --------------------------------------------- *)

let mark s x =
  if s.down.(x) <> s.epoch then begin
    s.down.(x) <- s.epoch;
    s.queue.(s.qtail) <- x;
    s.qtail <- s.qtail + 1
  end

(* Close the marked, queued seeds under state succs: the down-set
   (everything ⪰_S some seed). *)
let close_down t =
  let s = t.scratch in
  let visit _ x = mark s x and head = ref 0 in
  while !head < s.qtail do
    incr head;
    iter_succs visit t s.queue.(!head - 1)
  done

let precedes t u v =
  sync t;
  if not (scheduled t u && scheduled t v) then false
  else begin
    let s = t.scratch in
    s.epoch <- s.epoch + 1;
    s.qtail <- 0;
    iter_succs (fun _ x -> mark s x) t u;
    close_down t;
    s.down.(v) = s.epoch
  end

let state_graph t =
  sync t;
  let g = Graph.create () in
  Graph.iter_vertices
    (fun v ->
      let scheduled = scheduled t v in
      let delay = if scheduled then Graph.delay t.graph v else 0 in
      let op = if scheduled then Graph.op t.graph v else Op.Const 0 in
      let id = Graph.add_vertex g ~delay ~name:(Graph.name t.graph v) op in
      assert (id = v))
    t.graph;
  iter_scheduled (iter_succs (Graph.add_edge g) t) t;
  g

(* Lemma 7's thread degrees of a scheduled vertex: its thread neighbour
   plus its filled slots (free neighbours belong to no thread). *)
let in_degree t v = (if t.prev.(v) >= 0 then 1 else 0) + filled t t.ins v
let out_degree t v = (if t.next.(v) >= 0 then 1 else 0) + filled t t.outs v

(* Implicit thread edges plus explicit ones, without a pass. *)
let state_edges t =
  Array.fold_left (fun acc c -> acc + imax 0 (c - 1)) t.n_explicit t.count

(* Edge count and Lemma-7 degree maxima by a full pass over the state,
   for [stats]. *)
let edge_degree_stats t =
  let n_state_edges = ref 0 and max_in = ref 0 and max_out = ref 0 in
  iter_scheduled
    (fun v ->
      let d_out = out_degree t v in
      n_state_edges := !n_state_edges + d_out + List.length t.free_succs.(v);
      max_in := imax !max_in (in_degree t v);
      max_out := imax !max_out d_out)
    t;
  (!n_state_edges, !max_in, !max_out)

(* --- select ------------------------------------------------------- *)

(* Load the scheduled graph-ancestors / graph-descendants of v (the
   paper's "∀p, p ≺_G v" — the transitive relation, not just direct
   preds) into [anc]/[desc], ascending, straight from the [Reach] rows.
   Commit links them in this order. *)
let load_relatives t v =
  let s = t.scratch in
  let collect iter buf =
    let n = ref 0 in
    iter
      (fun x ->
        if scheduled t x then begin
          buf.(!n) <- x;
          incr n
        end)
      t.reach.index v;
    !n
  in
  s.n_anc <- collect Reach.iter_ancestors s.anc;
  s.n_desc <- collect Reach.iter_descendants s.desc;
  s.relatives_of <- v

let is_free_op t v =
  Graph.delay t.graph v = 0
  || Resources.class_of_op (Graph.op t.graph v) = None

(* Scan every position of every thread that can execute [v], in
   deterministic order (threads ascending, each head first, then after
   each member), calling [f k after cost] on the feasible ones ([after]
   is -1 for the head). Returns the number of slots examined (the
   Theorem 3 work measure). Requires [select_context v] to be fresh:
   fresh labels, [upto] and the down marks. [trace] reports each
   feasible candidate to the telemetry sink — only the [schedule] path
   sets it, so introspection helpers stay silent. *)
let scan_positions ?(trace = false) t v ~intrinsic_src ~intrinsic_snk f =
  let s = t.scratch in
  let in_up k x = x >= 0 && t.pos.(x) <= s.upto.(k) in
  let delay_v = Graph.delay t.graph v in
  let offer k after ~sdist_prev ~tdist_next =
    let cost =
      imax sdist_prev intrinsic_src + imax tdist_next intrinsic_snk + delay_v
    in
    if trace then
      Tel.emit
        (Tel.Candidate
           { v; thread = k; after = (if after < 0 then None else Some after); cost });
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
        if not (in_up k first) then
          offer k (-1) ~sdist_prev:0
            ~tdist_next:(if first < 0 then 0 else t.tdist.(first));
        (* Positions after each member. *)
        let w = ref first in
        while !w >= 0 do
          let next = t.next.(!w) in
          incr scanned;
          if s.down.(!w) <> s.epoch && not (in_up k next) then
            offer k !w ~sdist_prev:t.sdist.(!w)
              ~tdist_next:(if next < 0 then 0 else t.tdist.(next));
          w := next
        done
      end
    done;
    !scanned

(* Everything select needs for [v]: fresh labels, v's scheduled
   relatives (kept for commit), the up-set of its ancestors as [upto]
   (the thread-wise maximum of their frontier rows), the down-set of
   its descendants as marks, and the intrinsic source/sink distances
   through them. *)
let select_context t v =
  ensure_labels t;
  load_relatives t v;
  let s = t.scratch and k = t.width in
  let intrinsic_src = ref 0 and intrinsic_snk = ref 0 in
  Array.fill s.upto 0 k (-1);
  for j = 0 to s.n_anc - 1 do
    let p = s.anc.(j) in
    intrinsic_src := imax !intrinsic_src t.sdist.(p);
    for i = 0 to k - 1 do
      let f = t.front.((p * k) + i) in
      if f >= 0 && t.pos.(f) > s.upto.(i) then s.upto.(i) <- t.pos.(f)
    done
  done;
  s.epoch <- s.epoch + 1;
  s.qtail <- 0;
  for j = 0 to s.n_desc - 1 do
    let q = s.desc.(j) in
    intrinsic_snk := imax !intrinsic_snk t.tdist.(q);
    mark s q
  done;
  close_down t;
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
  check_vertex t v;
  if scheduled t v then []
  else if is_free_op t v then []
  else List.map fst (costed_positions t v)

let predicted_cost t v position =
  check_vertex t v;
  match List.assoc_opt position (costed_positions t v) with
  | Some cost -> cost
  | None -> invalid_arg "Threaded_graph.predicted_cost: infeasible position"

(* --- commit ------------------------------------------------------- *)

(* The explicit edge [p -> v] lives in p's out slot for v's thread (or
   p's free-succ list if v is free) and in v's in slot for p's thread
   (or v's free-pred list). The linking rules below always empty a slot
   before refilling it, which [fill] checks. *)
let fill (slots : int array) i x =
  assert (slots.(i) < 0);
  slots.(i) <- x

let add_explicit_edge t p v =
  let k = t.width and tp = t.owner.(p) and tv = t.owner.(v) in
  let present =
    if tv >= 0 then t.outs.((p * k) + tv) = v else List.memq v t.free_succs.(p)
  in
  if not present then begin
    if tv >= 0 then fill t.outs ((p * k) + tv) v
    else t.free_succs.(p) <- v :: t.free_succs.(p);
    if tp >= 0 then fill t.ins ((v * k) + tp) p
    else t.free_preds.(v) <- p :: t.free_preds.(v);
    t.n_explicit <- t.n_explicit + 1;
    if Tel.enabled () then Tel.emit (Tel.Edge_added { src = p; dst = v })
  end

let remove_explicit_edge t p v =
  let k = t.width and tp = t.owner.(p) and tv = t.owner.(v) in
  if tv >= 0 then t.outs.((p * k) + tv) <- -1
  else t.free_succs.(p) <- List.filter (fun x -> x <> v) t.free_succs.(p);
  if tp >= 0 then t.ins.((v * k) + tp) <- -1
  else t.free_preds.(v) <- List.filter (fun x -> x <> p) t.free_preds.(v);
  t.n_explicit <- t.n_explicit - 1;
  if Tel.enabled () then Tel.emit (Tel.Edge_removed { src = p; dst = v })

(* p's explicit succ / q's explicit pred in thread k, or -1. *)
let succ_in_thread t p k = t.outs.((p * t.width) + k)
let pred_in_thread t q k = t.ins.((q * t.width) + k)

(* Tighten edges between the freshly placed [v] and one scheduled
   graph-ancestor [p] (Figure 2 (a)(b)(c), with the same-thread-pred
   collapse repair of DESIGN.md §2.4). [k] is v's thread (-1 if free). *)
let link_ancestor t ~v ~k p =
  let tp = t.owner.(p) in
  if tp = k && k >= 0 then
    (* Same thread: feasibility guaranteed p sits before v; implicit. *)
    ()
  else begin
    let wanted =
      if k < 0 then true
      else
        let e = succ_in_thread t p k in
        if e < 0 then true
        else if t.pos.(e) < t.pos.(v) then false (* p -> e -> … -> v implied *)
        else begin
          remove_explicit_edge t p e;
          (* p ≺ e stays implied via p -> v -> … -> e. *)
          true
        end
    in
    if wanted then begin
      (* v keeps at most one explicit pred per foreign thread: the
         latest one. Free preds are never collapsed. *)
      if tp >= 0 then begin
        let p' = pred_in_thread t v tp in
        if p' < 0 || p' = p then add_explicit_edge t p v
        else if t.pos.(p') >= t.pos.(p) then
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
  let tq = t.owner.(q) in
  if tq = k && k >= 0 then ()
  else begin
    let wanted =
      if k < 0 then true
      else
        let e = pred_in_thread t q k in
        if e < 0 then true
        else if t.pos.(e) > t.pos.(v) then false (* v -> … -> e -> q implied *)
        else begin
          remove_explicit_edge t e q;
          true
        end
    in
    if wanted then begin
      if tq >= 0 then begin
        let q' = succ_in_thread t v tq in
        if q' < 0 || q' = q then add_explicit_edge t v q
        else if t.pos.(q') <= t.pos.(q) then
          () (* existing succ is earlier: keep *)
        else begin
          remove_explicit_edge t v q';
          add_explicit_edge t v q
        end
      end
      else add_explicit_edge t v q
    end
  end

(* Insert [v] into thread [k] and renumber the members from v on (those
   before it keep their positions). *)
let splice t v { thread = k; after } =
  let prev =
    match after with
    | None -> -1
    | Some w ->
      if t.owner.(w) <> k then
        invalid_arg "Threaded_graph.splice: anchor not in the target thread";
      w
  in
  let next = if prev < 0 then t.head.(k) else t.next.(prev) in
  t.owner.(v) <- k;
  t.prev.(v) <- prev;
  t.next.(v) <- next;
  if prev >= 0 then t.next.(prev) <- v else t.head.(k) <- v;
  if next >= 0 then t.prev.(next) <- v;
  t.count.(k) <- t.count.(k) + 1;
  let rec renumber x i =
    if x >= 0 then begin
      t.pos.(x) <- i;
      renumber t.next.(x) (i + 1)
    end
  in
  renumber v (if prev < 0 then 0 else t.pos.(prev) + 1)

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

(* The edges of the freshly linked [v] are final: bring the frontiers
   and then the labels up to date. The labels are either updated from v
   or, if they were not exact beforehand, left for the full pass. *)
let finish_commit t v ~was_exact =
  t.n_scheduled <- t.n_scheduled + 1;
  update_fronts t v;
  if was_exact then relabel_from t v else t.labelled <- false

let commit t v position =
  let was_exact = labels_exact t in
  splice t v position;
  link_relatives t v ~k:position.thread;
  finish_commit t v ~was_exact

let commit_free t v =
  let was_exact = labels_exact t in
  t.owner.(v) <- free;
  load_relatives t v;
  link_relatives t v ~k:free;
  finish_commit t v ~was_exact

let commit_at t v position =
  check_vertex t v;
  if scheduled t v then
    invalid_arg "Threaded_graph.commit_at: vertex already scheduled";
  if is_free_op t v then
    invalid_arg "Threaded_graph.commit_at: zero-resource op is placed free";
  if not (List.mem position (feasible_positions t v)) then
    invalid_arg "Threaded_graph.commit_at: infeasible position";
  commit t v position

type tie_break = [ `First | `Balance | `Pack ]

(* End-of-call telemetry summary, from values the state keeps: the
   incremental labels' diameter, the running edge count, and the degrees
   of v and its state neighbours. Every edge a commit adds ends at v and
   every other change removes an edge, so no other vertex's degree can
   have grown: the running maximum over calls equals that of a full
   per-call pass. Only ever run with a sink installed. *)
let emit_schedule_done t ~v ~thread ~scanned ~t0 =
  let max_in = ref 0 and max_out = ref 0 in
  let see _ x =
    max_in := imax !max_in (in_degree t x);
    max_out := imax !max_out (out_degree t x)
  in
  see v v;
  iter_preds see t v;
  iter_succs see t v;
  let summary =
    {
      Tel.scanned;
      diameter = diameter t;
      state_edges = state_edges t;
      max_thread_in_degree = !max_in;
      max_thread_out_degree = !max_out;
      elapsed_ns = Tel.now_ns () - t0;
    }
  in
  Tel.emit (Tel.Schedule_done { v; thread; summary })

let tie_rule_name = function
  | `First -> "first"
  | `Balance -> "balance"
  | `Pack -> "pack"

let schedule ?(tie = `First) t v =
  check_vertex t v;
  if not (scheduled t v) then begin
    let tel = Tel.enabled () in
    let t0 = if tel then Tel.now_ns () else 0 in
    if tel then Tel.emit (Tel.Schedule_start { v; name = Graph.name t.graph v });
    if is_free_op t v then begin
      if tel then Tel.emit (Tel.Free_placed { v; name = Graph.name t.graph v });
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
      let weigh k = if tie = `Pack then -t.count.(k) else t.count.(k) in
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
        Tel.emit (Tel.Tie_break { v; rule = tie_rule_name tie; ties = !ties });
      let best_pos =
        {
          thread = !best_thread;
          after = (if !best_after < 0 then None else Some !best_after);
        }
      in
      if tel then
        Tel.emit
          (Tel.Chosen
             { v; thread = best_pos.thread; after = best_pos.after; cost = !best_cost });
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
        match placement with
        | `Asap -> t.sdist.(v) - Graph.delay t.graph v
        | `Alap -> dia - t.tdist.(v))
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
  let n_in_threads = Array.fold_left ( + ) 0 t.count in
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
  {
    t with
    head = Array.copy t.head;
    count = Array.copy t.count;
    owner = Array.copy t.owner;
    prev = Array.copy t.prev;
    next = Array.copy t.next;
    pos = Array.copy t.pos;
    sdist = Array.copy t.sdist;
    tdist = Array.copy t.tdist;
    ins = Array.copy t.ins;
    outs = Array.copy t.outs;
    free_preds = Array.copy t.free_preds;
    free_succs = Array.copy t.free_succs;
    front = Array.copy t.front;
    (* [reach] stays the shared box: see its definition. *)
    scratch = make_scratch 0 ~width:t.width;
  }
