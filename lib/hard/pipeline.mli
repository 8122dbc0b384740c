open Import

(** Pipelined functional units, as a graph transform.

    A pipelined multiplier with latency L and initiation interval 1
    accepts a new operation every cycle while results take L cycles.
    Rather than teaching every scheduler about initiation intervals,
    the transform splits each multi-cycle operation of a pipelined
    class into an {e issue} vertex (delay = II, it occupies the unit)
    feeding a {e drain} vertex (delay = L − II, a free pass-through):
    any scheduler of this repository — list, exact, modulo,
    threaded — then produces a pipelined schedule for free.

    Evaluation semantics are preserved: the issue vertex computes the
    operation, the drain forwards the value ([Op.Wire]). *)

type t = {
  original : Graph.t;
  split : Graph.t;  (** the transformed graph *)
  issue_of : Graph.vertex array;
      (** original vertex -> its issue vertex in [split] *)
  result_of : Graph.vertex array;
      (** original vertex -> the vertex producing its value in [split]
          (the drain for split ops, the issue itself otherwise) *)
}

val split :
  ?pipelined:(Resources.fu_class -> bool) -> ?interval:int -> Graph.t -> t
(** Default: only [Resources.Multiplier] is pipelined, [interval = 1].
    Single-cycle ops and non-pipelined classes pass through untouched.
    @raise Invalid_argument if [interval < 1]. *)

val recover_starts : t -> Schedule.t -> int array
(** Start time of each original op (its issue vertex's start) in a
    schedule of the split graph. Under pipelined-unit semantics the
    producers' {e results} still arrive before consumers start (checked
    by the tests); plain [Schedule.check ~resources] on these starts
    would report unit overlaps, which is the point of pipelining. *)

val csteps :
  scheduler:(Graph.t -> Schedule.t) -> Graph.t -> int
(** Convenience: split, schedule with the given scheduler, report the
    split schedule's length (= the pipelined design's control steps). *)
