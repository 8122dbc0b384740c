(** Sums and maxima over the scheduler's telemetry stream.

    Create one, install {!sink} (alone, or from a sink that also feeds
    a {!Events.Recorder}) and read {!snapshot} when the run is over.
    Every event is folded in under one lock, so the totals are exact at
    any parallelism. *)

type t

type snapshot = {
  schedule_calls : int;  (** [schedule] calls that did work *)
  free_placements : int;  (** zero-resource vertices placed free *)
  positions_scanned : int;  (** total select-scan work (Theorem 3) *)
  max_positions_in_call : int;
  candidates : int;  (** feasible positions reported to the sink *)
  tie_breaks : int;
  edges_added : int;  (** explicit cross edges added by commits *)
  edges_removed : int;  (** cross edges dropped as implied *)
  max_in_degree_observed : int;  (** running max over commits (Lemma 7) *)
  max_out_degree_observed : int;
  elapsed_ns : int;  (** wall time inside instrumented calls *)
  closure_rows_touched : int;  (** reachability rows unioned by syncs *)
  closure_words_ored : int;  (** 64-bit words OR'd by those unions *)
  closure_rebuilds : int;  (** syncs forced to rebuild from scratch *)
  closure_incremental_updates : int;  (** syncs served by journal replay *)
}

val create : unit -> t

val sink : t -> Events.sink
(** A sink that accumulates into [t]; safe to call from several
    domains at once. *)

val snapshot : t -> snapshot
(** The totals so far (an immutable record). *)

val to_string : ?state:string list -> snapshot -> string
(** Human-readable block, one counter per line (what [--stats] prints).
    [state] lines describe a final scheduling state and are printed
    after the edge counts; counters alone cannot describe one state
    when several graphs were scheduled. *)

val to_alist : snapshot -> (string * float) list
(** Key/value view, keys sorted ascending, with [cross_edges_touched]
    (added + removed) among them. *)
