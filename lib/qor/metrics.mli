(** Typed per-phase QoR metrics and instrumented spans.

    A {e metric} is one named, unit-carrying number with a {e gating
    direction}: whether a regression gate should treat growth as a
    regression ([Lower_better]), shrinkage as a regression
    ([Higher_better]) or ignore the metric entirely ([Info] — wall
    clock, allocation and anything else machine-dependent).

    A {e span} wraps one stage of the HLS flow and records what the
    stage cost (wall clock, GC allocation, telemetry-counter deltas)
    next to what the stage produced (its metrics).

    A {e registry} accumulates spans in flow order; {!Report} freezes
    one into the versioned JSON run-report. *)

type direction = Lower_better | Higher_better | Info

type metric = {
  name : string;
  value : float;
  units : string;  (** e.g. ["cycles"], ["registers"], ["ratio"] *)
  direction : direction;
}

type span = {
  phase : string;  (** flow-stage name, e.g. ["soft_schedule"] *)
  wall_ns : int;
  alloc_words : float;  (** GC words allocated during the span *)
  counters : (string * float) list;
      (** telemetry-counter deltas attributed to this span; empty when
          no counter collection was active *)
  metrics : metric list;
}

type t
(** A mutable registry of spans, in flow order. *)

val create : unit -> t

val with_span :
  ?counters:Telemetry.Counters.t -> t -> string ->
  (unit -> 'a * metric list) -> 'a
(** [with_span t phase f] times [f], charges its GC allocation and (when
    [counters] is given) the telemetry-counter movement to a new span
    named [phase], attaches the metrics [f] returns and appends the span
    to [t]. The span is recorded even if [f] raises (with the metrics it
    never got to return). *)

val spans : t -> span list
(** In execution order. *)

val metric :
  ?units:string -> ?direction:direction -> string -> float -> metric
(** [units] defaults to [""], [direction] to [Info]. *)

val metric_i :
  ?units:string -> ?direction:direction -> string -> int -> metric

val find : span list -> phase:string -> name:string -> metric option

val counter_deltas :
  before:Telemetry.Counters.snapshot -> after:Telemetry.Counters.snapshot ->
  (string * float) list
(** Per-key difference of the two snapshots. *)
