(** The serving layer's runtime metrics plane.

    Per-request phase latencies (parse → prepare → cache lookup → queue wait →
    schedule → emit, plus the request total) land in log-bucketed
    {!Telemetry.Histogram}s; pool queue depth, in-flight requests, live
    connections and cache occupancy are {!Telemetry.Gauge}s; outcomes
    accumulate in counters. One snapshot feeds both the [stats] admin
    reply / [--metrics-file] JSON dump and the Prometheus text
    exposition sibling. A threshold-gated slow-request log writes one
    NDJSON line per offending request.

    Thread-safe: recording and snapshotting take the plane's single
    mutex; gauge stores are single-word writes. Everything here only
    observes — scheduling results are byte-identical with or without a
    metrics plane installed. *)

open Import

(** Per-request phase timings in nanoseconds. Each layer fills in its
    own phase as the request passes through (daemon/batch: parse,
    prepare, queue wait, emit, total; service: cache lookup, schedule),
    then the owner
    hands the span to {!record} exactly once. *)
type span = {
  mutable parse_ns : int;
  mutable prepare_ns : int;
      (** request -> cache key: graph build or [.dfg] parse, fingerprint *)
  mutable lookup_ns : int;  (** the cache find alone *)
  mutable queue_ns : int;
  mutable schedule_ns : int;
  mutable emit_ns : int;
  mutable total_ns : int;
}

val span : unit -> span
(** A fresh all-zero span. *)

type t

val create : unit -> t

val record :
  t ->
  trace:string ->
  design:string ->
  ok:bool ->
  cached:bool ->
  degraded:bool ->
  span ->
  unit
(** Fold one finished request into the plane (and the slow log when its
    total crosses the threshold). Call exactly once per request. *)

val turned_away : t -> unit
(** Count a connection rejected at the connection cap. *)

val engine_run : t -> engine:string -> unit
(** Count one completed scheduling run by the named portfolio engine
    (fast-path soft runs, race participants, exhaustive runs alike). *)

val race_win : t -> engine:string -> unit
(** Count one race and credit the winner — the race-win histogram in
    the snapshot ([engines.<name>.race_wins]) and the Prometheus
    [softsched_race_wins_total{engine=…}] family. *)

val retry_after_ms : t -> queue_depth:int -> int
(** Back-off hint for a turned-away client: median request latency
    scaled by the queue depth, clamped to [25, 5000] ms (50 ms before
    any request completed). *)

(** {2 Gauges} *)

val set_pool_queue_depth : t -> int -> unit
val set_connections : t -> int -> unit
val add_in_flight : t -> int -> unit
val set_cache_occupancy : t -> entries:int -> capacity:int -> unit

(** {2 Slow-request log} *)

val set_slow_log : t -> ?threshold_ms:float -> [ `Stderr | `File of string ] -> unit
(** Requests whose total is ≥ [threshold_ms] (default 100) emit one
    NDJSON line — timestamp, trace id, design, status, per-phase
    milliseconds — to stderr or an append-mode file. *)

val close_slow_log : t -> unit

(** {2 Export} *)

val snapshot_json : ?cache:Cache.stats -> t -> Json.t
(** The full snapshot: uptime, outcome counters, per-phase latency
    percentiles (milliseconds), gauges, and — when [cache] is given —
    the fingerprint cache's counters. *)

val to_prometheus : ?cache:Cache.stats -> t -> string
(** The same data in Prometheus text exposition format: one
    [softsched_request_phase_seconds] histogram family with a [phase]
    label (cumulative buckets in seconds, closing with +Inf), plus
    counters and gauges. *)

val summary : t -> string
(** Human-readable block: outcome counts and a per-phase latency table
    (what [batch --stats] and the daemon drain print). *)
