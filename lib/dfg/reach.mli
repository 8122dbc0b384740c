(** Reachability (the partial order ≼ induced by a precedence graph).

    The threaded scheduler's feasibility test and the correctness
    invariant both need fast "does u precede v" queries. A bitset
    transitive closure answers them in O(1) after O(V·E/word) setup.

    The index is {e growable and monotone}: precedence graphs in this
    repository only ever gain vertices and edges, so {!add_vertex} and
    {!add_edge} extend the closure in place (OR-ing one descendant row
    into each ancestor row and vice versa) instead of forcing a rebuild.
    Clients replaying a {!Graph.mutations_since} journal keep queries
    exact at a per-mutation cost of O(ancestors + descendants) row
    unions rather than O(V·E/word) per rebuild. *)

type t

val of_graph : Graph.t -> t

val size : t -> int
(** Number of vertices currently covered by the index. *)

val add_vertex : t -> Graph.vertex
(** Extends the index with one isolated vertex and returns its id
    (always [size t] before the call). Amortised O(V/word). *)

val add_edge : t -> Graph.vertex -> Graph.vertex -> unit
(** [add_edge r u v] merges the dependence [u -> v] into the closure:
    every ancestor of [u] absorbs [v]'s descendant row, every descendant
    of [v] absorbs [u]'s ancestor row. No-op if [u] already reaches [v].
    Sound only for edge {e additions} on a DAG — removals require
    {!of_graph}. @raise Invalid_argument on a self loop or unknown
    vertex. *)

val update_stats : t -> int * int
(** [(rows_touched, words_ored)] accumulated by closure construction
    and maintenance on this index; monotone counters for telemetry. *)

val precedes : t -> Graph.vertex -> Graph.vertex -> bool
(** [precedes r u v] iff there is a non-empty path from [u] to [v]
    (strict: [precedes r v v = false]). *)

val preceq : t -> Graph.vertex -> Graph.vertex -> bool
(** Reflexive closure of {!precedes}. *)

val comparable : t -> Graph.vertex -> Graph.vertex -> bool
(** [u ≼ v] or [v ≼ u]. *)

val descendants : t -> Graph.vertex -> Graph.vertex list
(** Strict descendants, ascending id order. *)

val ancestors : t -> Graph.vertex -> Graph.vertex list

val iter_descendants : (Graph.vertex -> unit) -> t -> Graph.vertex -> unit
(** [iter_descendants f r v] applies [f] to the strict descendants of
    [v] in ascending id order, without building a list. Zero words of
    the bitset row are skipped whole, so a sparse row costs
    O(V/64 + its size). *)

val iter_ancestors : (Graph.vertex -> unit) -> t -> Graph.vertex -> unit
(** Strict ancestors, as {!iter_descendants}. *)

val count_pairs : t -> int
(** Number of ordered pairs [(u, v)] with [u ≺ v] — a measure of how
    constrained the partial order is; used by the flexibility ablation. *)
