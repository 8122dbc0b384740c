open Import

(** The scheduler portfolio: the paper's threaded scheduler, its
    meta-schedule searches, and the baselines that beat it somewhere,
    behind one first-class signature and a static table, so the CLI,
    the serving layer and the bench can treat "which scheduler" as a
    parameter.

    An engine maps [(resources, graph)] to a hard {!Schedule.t} under a
    shared context (soft deadline, RNG seed, meta-schedule name, search
    budget). {!run} wraps any engine with the QoR annotations the race
    arbiter orders by — control steps, then peak register pressure,
    then wall time — mirroring the flow report's metric priority. *)

(** Shared knobs, one record so the signature survives new engines.
    [deadline] is an absolute instant on the [Unix.gettimeofday] scale
    (lib/core reads it through [Telemetry.now_ns], the same clock).
    [meta] names the feeding order for threaded engines; [budget] is
    engine-specific (annealing iterations, branch-and-bound nodes). *)
type ctx = {
  deadline : float option;
  seed : int;
  meta : string;
  budget : int option;
}

val ctx :
  ?deadline:float -> ?seed:int -> ?meta:string -> ?budget:int -> unit -> ctx
(** Defaults: no deadline, [seed = 0], [meta = "topo"], no budget. *)

val default_ctx : ctx

(** What an engine reports alongside the schedule. *)
type info = {
  optimal : bool;  (** proven optimal (exhaustive search completed) *)
  state : Threaded_graph.t option;
      (** the threaded scheduling state, for the engines built on it, so
          downstream refinement can keep mutating the result *)
}

module type S = sig
  val name : string

  val schedule : ctx -> resources:Resources.t -> Graph.t -> Schedule.t * info
  (** Returns soon after [ctx.deadline] with a valid schedule: past the
      deadline an engine stops improving and keeps what it has. May
      raise on malformed input (cyclic graph, unknown meta); never
      raises merely because the deadline or budget ran out. *)
end

type engine = (module S)

val name : engine -> string

(** {2 QoR-annotated runs} *)

type annotations = {
  engine : string;
  csteps : int;  (** schedule length — the Figure 3 quantity *)
  registers : int;  (** peak simultaneously-live values *)
  wall_s : float;
  optimal : bool;
  degraded : bool;
      (** returned after [ctx.deadline] without being proven optimal:
          the result depends on machine speed, so it is never cached *)
}

type outcome = {
  schedule : Schedule.t;
  annot : annotations;
  state : Threaded_graph.t option;
}

val run : ?ctx:ctx -> engine -> resources:Resources.t -> Graph.t -> outcome
(** Time the engine and annotate its schedule, applying the deadline
    rule for [degraded]. *)

val run_traced :
  ?ctx:ctx ->
  engine ->
  resources:Resources.t ->
  sink:Telemetry.sink ->
  Graph.t ->
  outcome
(** {!run} with the telemetry sink installed for the duration. *)

val compare_qor : outcome -> outcome -> int
(** The race arbiter's order, matching [Qor.Diff]'s metric priority:
    fewer control steps first, then fewer registers, then less wall
    time. Negative when the first argument wins. *)

val peak_live : Graph.t -> Schedule.t -> int
(** Register-pressure annotation: the maximum number of values live in
    any cycle (a value is live from its producer's finish to its last
    consumer's start; sink values occupy nothing). *)

(** {2 The engine table}

    One constant list: this library's engines plus [modulo], the
    iterative modulo scheduler of [lib/modulo] run on a DAG as a loop
    body with independent iterations. Nothing registers at startup, so
    every binary that links [soft] sees the whole portfolio. *)

val all : unit -> engine list
(** Table order: [soft], [search], [anneal], [list], [bnb], [modulo].
    {!Naive}, the Theorem 2 reference select, is not an engine: it
    speculates on a state copy per position, far too slow to race. *)

val names : unit -> string list

val find : string -> engine option
(** Exact (case-insensitive) name lookup — no aliases. *)

val of_string : string -> (engine, string) result
(** The CLI/protocol spelling: canonical names plus the aliases
    [threaded]→[soft], [sa]/[annealing]→[anneal],
    [exact]/[bb]/[exhaustive]→[bnb], [ims]/[loop]→[modulo]. The error
    names the known engines. *)

(** {2 The shared threaded run} *)

val threaded_run :
  ?deadline:float ->
  ?tie:Threaded_graph.tie_break ->
  meta:Meta.t ->
  resources:Resources.t ->
  Graph.t ->
  Threaded_graph.t * bool
(** One pass of the threaded scheduler: feed the meta order through
    {!Threaded_graph.schedule}. A call is linear (Theorem 3), so the
    pass is never cut short; [degraded] is the deadline rule of {!run}:
    the deadline had expired when the pass ended. Returns
    [(state, degraded)]. This is the serving layer's scheduling step
    ([Serve.Service] delegates here), kept in lib/core so the [soft]
    engine and the service are the same code path by construction. *)
