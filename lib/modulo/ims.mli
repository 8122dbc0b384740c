open Import

(** Iterative modulo scheduling (Rau), in the soft-scheduling spirit:
    the schedule under construction is {e refined} when an operation
    fails to place — conflicting operations are evicted back onto the
    worklist and re-placed one slot later — rather than the whole II
    attempt being invalidated.

    {!run} searches the initiation interval upward from {!Mii.mii}.
    Each candidate II gets a placement budget; within it, operations
    are placed highest-height-first at their earliest recurrence-
    feasible start, scanning [II] consecutive slots of the modulo
    reservation table. When no slot fits, the operation is forced in
    and the conflicting occupants (lowest height first) plus any
    now-violated successors are evicted. If every candidate up to
    [max_ii] exhausts its budget, the serial fallback — the loop body
    list-scheduled, II = its length — is returned; it is always valid,
    so {!run} only fails on an unschedulable kernel (a needed unit
    class with zero units, or a zero-distance cycle). *)

type stats = {
  mii : int;  (** the bound the search started from *)
  res_mii : int;
  rec_mii : int;
  ii : int;  (** achieved initiation interval *)
  placements : int;  (** scheduling steps across every II tried *)
  evictions : int;  (** operations displaced by a forced placement *)
  iis_tried : int;
  serial_fallback : bool;  (** true: budget ran out, body schedule used *)
}

val run :
  ?budget:int ->
  ?max_ii:int ->
  ?should_stop:(unit -> bool) ->
  resources:Resources.t ->
  Loop_graph.t ->
  (Mschedule.t * stats, string) result
(** [budget] is the per-candidate-II placement allowance, default
    [max 128 (8 * n_vertices)]. [max_ii] caps the search, default
    the serial fallback length (searching past it is pointless).
    [should_stop] is polled before each placement; once it answers
    [true] the search gives up and returns the serial fallback.
    The result passes [Mschedule.check ~resources] by construction;
    determinism: same kernel, same resources, same schedule. *)
