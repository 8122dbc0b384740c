open Import

(** The naive speculative scheduler the paper dismisses in Section 4.2:
    evaluate every insertion position by actually performing it on a
    copy of the state and measuring the resulting diameter —
    O(|V|²·|E|) per operation against Algorithm 1's O(|V|).

    It is the executable specification of Definition 5: the fast select
    must pick a position with the same resulting diameter (Theorem 2).
    The property tests cross-check them; the complexity bench plots the
    asymptotic gap. *)

val select :
  Threaded_graph.t -> Graph.vertex ->
  (Threaded_graph.position * int) option
(** Best position and the diameter it produces, scanning positions in
    the same deterministic order as the fast select (first strict
    minimum wins). [None] for zero-resource ops. *)

val schedule : Threaded_graph.t -> Graph.vertex -> unit
(** Schedule one operation using the speculative select. *)

val run :
  ?meta:Meta.t -> resources:Resources.t -> Graph.t -> Threaded_graph.t
