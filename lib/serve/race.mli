open Import

(** Race mode: fan one scheduling problem out to several engines on a
    worker pool, keep the QoR winner.

    Every engine runs the same [(graph, resources)] under one shared
    {!Soft.Engine.ctx}; the winner is the {!Soft.Engine.compare_qor}
    minimum (control steps, then registers, then wall time — the
    [Qor.Diff] metric priority), ties resolved by portfolio order. Once
    an engine commits a {e provably optimal} schedule, still-queued
    rivals are cancelled — they cannot beat it on the leading metric
    and their latency is pure waste. Started work always completes
    ({!Pool}'s guarantee), so cancellation never corrupts state. *)

type entry = {
  engine : string;
  outcome : Engine.outcome option;  (** [None]: crashed or cancelled *)
  error : string option;  (** the exception text, when it crashed *)
  cancelled : bool;
}

type t = {
  winner : Engine.outcome;
  entries : entry list;  (** portfolio order, one per racer *)
  wall_s : float;  (** whole-race wall clock *)
  degraded : bool;
      (** some racer was degraded ({!Soft.Engine.annotations}): on a
          faster machine the winner could differ, so the race result
          is not cached *)
}

val default_portfolio : unit -> Engine.engine list
(** [list; search; anneal]: the cheap baseline, the paper's scheduler
    under its meta schedules, and a stochastic improver. [search] tries
    every {!Soft.Meta.names} order, so with no deadline a race is never
    worse than [soft], the fast path, on any meta order. *)

val run :
  ?pool:Pool.t ->
  ?deadline:float ->
  ?seed:int ->
  ?meta:string ->
  ?budget:int ->
  engines:Engine.engine list ->
  resources:Resources.t ->
  Graph.t ->
  (t, string) result
(** [Error] on an empty portfolio or when every engine crashed. With no
    [pool], a private pool sized to the portfolio is created and drained
    before returning — callers already running {e inside} a pool worker
    (the service) must rely on that default, since racing on their own
    pool would deadlock its workers against each other. *)
