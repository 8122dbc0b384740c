(** Precedence graphs (Definition 1 of the paper).

    A precedence graph is a DAG [G = (V, E, D)] whose vertices are
    operations, whose edges are data/serialisation dependences and whose
    delay function [D] gives each vertex a non-negative cycle count.

    Vertices are dense integer ids in [0 .. n_vertices g - 1]; ids are
    stable (vertices are never removed — refinement passes that "replace"
    behaviour build a new graph via {!Mutate}). The list of predecessors
    of a vertex is kept in insertion order because it doubles as the
    operand list for evaluation of non-commutative operations.

    Adjacency is stored in growable int arrays ({!Vec}) and nothing
    else: [add_edge] and [mem_edge] find an existing edge by scanning
    the shorter of [succs u] / [preds v], O(min(out(u), in(v))). Every
    change (structure or delay) is appended to a mutation
    journal; incremental clients (notably the reachability index in
    [Soft.Threaded_graph]) read {!generation} and replay
    {!mutations_since} instead of diffing the whole graph. *)

type t
type vertex = int

type mutation =
  | Added_vertex of vertex
  | Added_edge of vertex * vertex
  | Removed_edge of vertex * vertex
  | Changed_delay of vertex
      (** One entry per change, in application order.
          [replace_operand] journals as a removal and/or addition;
          {!set_delay} as [Changed_delay]. *)

val create : unit -> t

val add_vertex : t -> ?delay:int -> ?name:string -> Op.t -> vertex
(** Adds an operation vertex. [delay] defaults to {!Delay.of_op}.
    [name] is a debugging / output label. *)

val add_edge : t -> vertex -> vertex -> unit
(** [add_edge g u v] records the dependence [u -> v] ("u before v").
    Duplicate edges are ignored. @raise Invalid_argument on a self loop
    or an unknown endpoint. Acyclicity is {e not} checked here (it would
    make construction quadratic); call {!is_dag} after construction, as
    every front end and generator in this repository does. *)

val remove_edge : t -> vertex -> vertex -> unit
(** @raise Invalid_argument if the edge is absent. *)

val replace_operand : t -> vertex -> old_pred:vertex -> new_pred:vertex -> unit
(** [replace_operand g v ~old_pred ~new_pred] rewires the first operand
    slot of [v] currently fed by [old_pred] to read from [new_pred],
    preserving operand order. The edge [old_pred -> v] is dropped only
    when no other operand slot of [v] still reads [old_pred], so edge
    accounting stays exact even after operand merges. @raise
    Invalid_argument if [old_pred] does not feed [v]. *)

val n_vertices : t -> int
val n_edges : t -> int

val generation : t -> int
(** Monotone mutation counter: the number of journal entries so far.
    Two observations of the same graph are identical (structure and
    delays) iff their generations are equal. *)

val mutations_since : t -> int -> mutation list
(** [mutations_since g gen] returns the journal suffix from generation
    [gen] (inclusive) to the present, oldest first. [mutations_since g
    (generation g)] is []. @raise Invalid_argument if [gen] is not in
    [0 .. generation g]. *)

val op : t -> vertex -> Op.t
val delay : t -> vertex -> int
val set_delay : t -> vertex -> int -> unit
val name : t -> vertex -> string
(** Vertex label; defaults to ["v<i>"]. *)

val preds : t -> vertex -> vertex list
(** Immediate predecessors in operand order. Allocates; prefer
    {!iter_preds} / {!fold_preds} in hot loops. *)

val succs : t -> vertex -> vertex list
(** Immediate successors in insertion order. Allocates; prefer
    {!iter_succs} / {!fold_succs} in hot loops. *)

val in_degree : t -> vertex -> int
(** O(1): the number of operand slots (duplicates counted). *)

val out_degree : t -> vertex -> int
(** O(1). *)

val mem_edge : t -> vertex -> vertex -> bool
(** O(min(out_degree u, in_degree v)). *)

val iter_preds : (vertex -> unit) -> t -> vertex -> unit
(** Array-walking variant of {!preds}: no allocation, operand order. *)

val iter_succs : (vertex -> unit) -> t -> vertex -> unit
val fold_preds : ('acc -> vertex -> 'acc) -> 'acc -> t -> vertex -> 'acc
val fold_succs : ('acc -> vertex -> 'acc) -> 'acc -> t -> vertex -> 'acc
val exists_pred : (vertex -> bool) -> t -> vertex -> bool
val exists_succ : (vertex -> bool) -> t -> vertex -> bool

val vertices : t -> vertex list
val iter_vertices : (vertex -> unit) -> t -> unit
val fold_vertices : ('acc -> vertex -> 'acc) -> 'acc -> t -> 'acc
val iter_edges : (vertex -> vertex -> unit) -> t -> unit
val edges : t -> (vertex * vertex) list

val sources : t -> vertex list
(** Vertices with no predecessors (the paper's "primary inputs"). *)

val sinks : t -> vertex list
(** Vertices with no successors (the paper's "primary outputs"). *)

val is_dag : t -> bool

val copy : t -> t

val total_delay : t -> int
(** Sum of all vertex delays — a lower bound on any 1-resource schedule. *)

val pp : Format.formatter -> t -> unit
(** Multi-line dump: one vertex per line with op, delay and successors. *)
