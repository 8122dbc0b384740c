open Import

(** Meta-schedule search.

    Section 5 is explicit that online optimality does not fix the
    global result: the meta schedule (feeding order) matters. The order
    space is cheap to sample because one full threaded scheduling run
    is linear-ish; this module searches it — the missing "outer loop"
    a production tool would ship. *)

type outcome = {
  best_csteps : int;
  best_order : Graph.vertex list;
  evaluated : int;
  history : int list;  (** best-so-far after each evaluation *)
}

val run :
  ?tie:Threaded_graph.tie_break -> ?restarts:int -> ?seed:int ->
  resources:Resources.t -> Graph.t -> outcome
(** Evaluates the four standard meta schedules plus [restarts] random
    orders (default 16) and returns the champion. Deterministic given
    [seed] (default 0). *)

val best_state :
  ?tie:Threaded_graph.tie_break -> ?restarts:int -> ?seed:int ->
  ?deadline:float -> resources:Resources.t -> Graph.t -> Threaded_graph.t
(** {!run}'s champion as a scheduling state. [deadline] is an absolute
    instant on the [Unix.gettimeofday] scale: once passed, no further
    candidate order is started, and the best one finished so far wins
    (the first candidate always finishes). *)

val hill_climb :
  ?tie:Threaded_graph.tie_break -> ?steps:int -> ?seed:int ->
  resources:Resources.t -> Graph.t -> outcome
(** Local search on top of {!run}: starting from the sampled champion,
    repeatedly move one random operation to a random place in the
    feeding order and keep the move when the result does not get worse
    (sideways moves escape plateaus). [steps] mutations are tried
    (default 200). Monotone in the best: never worse than {!run}. *)
